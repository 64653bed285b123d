"""DeviceTensor: modes, views, loads, memory interaction."""

import numpy as np
import pytest

from repro.device import Mode, VirtualGPU
from repro.device.tensor import check_same_mode
from repro.errors import ModeError, ShapeError
from repro.hardware.machines import V100


@pytest.fixture()
def dev():
    return VirtualGPU(V100, rank=0, mode=Mode.FUNCTIONAL)


@pytest.fixture()
def sym_dev():
    return VirtualGPU(V100, rank=0, mode=Mode.SYMBOLIC)


def test_empty_allocates_and_frees(dev):
    t = dev.empty((10, 4), name="t")
    assert dev.memory_in_use >= 160
    t.free()
    assert dev.memory_in_use == 0


def test_zeros(dev):
    t = dev.zeros((3, 3))
    assert np.all(t.data == 0)


def test_from_numpy_copies(dev):
    src = np.arange(6, dtype=np.float32).reshape(2, 3)
    t = dev.from_numpy(src)
    src[0, 0] = 99
    assert t.data[0, 0] == 0


def test_symbolic_tensor_has_no_data(sym_dev):
    t = sym_dev.empty((5, 5))
    assert t.data is None
    with pytest.raises(ModeError):
        t.require_data()


def test_symbolic_counts_memory(sym_dev):
    t = sym_dev.empty((1024, 1024))
    assert sym_dev.memory_in_use >= 1024 * 1024 * 4


def test_functional_device_can_make_symbolic_tensor(dev):
    t = dev.symbolic((4, 4))
    assert t.mode is Mode.SYMBOLIC
    assert t.data is None


def test_geometry_properties(dev):
    t = dev.empty((7, 3))
    assert t.rows == 7 and t.cols == 3
    assert t.size == 21
    assert t.nbytes == 84
    v = dev.empty((5,))
    assert v.cols == 1


def test_view_shares_memory(dev):
    t = dev.zeros((8, 4), name="base")
    v = t.view(3)
    v.data[:] = 7.0
    assert np.all(t.data[:3] == 7.0)
    assert np.all(t.data[3:] == 0.0)
    assert v.allocation is None


def test_view2d_window(dev):
    t = dev.zeros((8, 4))
    v = t.view2d(2, 3)
    assert v.shape == (2, 3)
    v.data.fill(1.0)
    assert t.data[:2, :3].sum() == 6.0
    assert t.data.sum() == 6.0


def test_view_out_of_range(dev):
    t = dev.empty((4, 4))
    with pytest.raises(ShapeError):
        t.view(5)
    with pytest.raises(ShapeError):
        t.view2d(2, 9)


def test_view_requires_2d(dev):
    t = dev.empty((4,))
    with pytest.raises(ShapeError):
        t.view(2)


def test_segment_is_a_contiguous_reshaped_view(dev):
    t = dev.zeros((10,), name="flat")
    a = t.segment(0, (2, 2), name="a")
    b = t.segment(4, (3, 2))
    assert (a.name, b.name) == ("a", "flat[4:10]")
    assert b.shape == (3, 2) and b.allocation is None
    assert b.data.flags.c_contiguous
    b.load_(np.arange(6, dtype=np.float32).reshape(3, 2))
    assert np.array_equal(t.data[4:], np.arange(6, dtype=np.float32))
    assert np.all(a.data == 0.0)


def test_segment_bounds_and_rank(dev, sym_dev):
    t = dev.empty((6,))
    with pytest.raises(ShapeError):
        t.segment(4, (2, 2))
    with pytest.raises(ShapeError):
        t.segment(-1, (1,))
    with pytest.raises(ShapeError):
        dev.empty((2, 3)).segment(0, (2,))
    s = sym_dev.empty((6,)).segment(2, (2, 2))
    assert s.data is None and s.shape == (2, 2)


def test_load_checks_shape(dev):
    t = dev.empty((2, 2))
    with pytest.raises(ShapeError):
        t.load_(np.zeros((3, 3), dtype=np.float32))


def test_load_casts_dtype(dev):
    t = dev.empty((2, 2))
    t.load_(np.ones((2, 2), dtype=np.float64))
    assert t.data.dtype == np.float32


def test_load_noop_in_symbolic(sym_dev):
    t = sym_dev.empty((2, 2))
    t.load_(np.ones((2, 2)))  # silently ignored
    assert t.data is None


def test_fill_in_symbolic_is_noop(sym_dev):
    t = sym_dev.empty((2, 2))
    assert t.fill_(3.0) is t


def test_check_same_mode(dev, sym_dev):
    a = dev.empty((2, 2))
    b = dev.empty((2, 2))
    assert check_same_mode(a, b) is Mode.FUNCTIONAL
    c = sym_dev.empty((2, 2))
    with pytest.raises(ModeError):
        check_same_mode(a, c)


def test_negative_shape_rejected(dev):
    with pytest.raises(ShapeError):
        dev.empty((-1, 4))
