"""Bit-exactness of the im2col/col2im lowering kernels against their
offset-loop references.

Each lowering loops over whichever is fewer, kernel offsets or output
positions.  The references below are the single-gather / per-offset loops
every kernel used before the position branch existed; every case must match
them byte for byte (signed zeros included) and return a C-contiguous array.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.batched import _stacked_col2im_t, _stacked_im2col_t
from repro.nn import functional as F


def _padded(x, ph, pw):
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def _windows(x, kh, kw, sh, sw):
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows[:, :, ::sh, ::sw, :, :]


def ref_im2col(x, kernel, stride, padding):
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c = x.shape[:2]
    windows = _windows(_padded(x, ph, pw), kh, kw, sh, sw)
    out_h, out_w = windows.shape[2:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), out_h, out_w


def ref_im2col_t(x, kernel, stride, padding):
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c = x.shape[:2]
    windows = _windows(_padded(x, ph, pw), kh, kw, sh, sw)
    out_h, out_w = windows.shape[2:4]
    colsT = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, n * out_h * out_w)
    return np.ascontiguousarray(colsT), out_h, out_w


def _unpad(dx, h, w, ph, pw):
    return dx[:, :, ph:ph + h, pw:pw + w] if ph or pw else dx


def ref_col2im(cols, x_shape, kernel, stride, padding, out_h, out_w):
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, w = x_shape
    dx = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    cols = cols.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += cols[:, :, :, :, i, j]
    return _unpad(dx, h, w, ph, pw)


def ref_col2im_t(colsT, x_shape, kernel, stride, padding, out_h, out_w):
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    n, c, h, w = x_shape
    dx = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=colsT.dtype)
    colsK = colsT.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            view = dx[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            view += colsK[:, i, j].transpose(1, 0, 2, 3)
    return _unpad(dx, h, w, ph, pw)


def ref_stacked_im2col_t(x, num_chips, kernel, stride, padding):
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    total, c = x.shape[:2]
    per_chip = total // num_chips
    windows = _windows(_padded(x, ph, pw), kh, kw, sh, sw)
    out_h, out_w = windows.shape[2:4]
    split = windows.reshape((num_chips, per_chip) + windows.shape[1:])
    stack = np.empty((num_chips, c * kh * kw, per_chip * out_h * out_w), dtype=x.dtype)
    dest = stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    np.copyto(dest, split.transpose(0, 2, 5, 6, 1, 3, 4))
    return stack, out_h, out_w


def ref_stacked_col2im_t(cols_stack, x_shape, num_chips, kernel, stride, padding, out_h, out_w):
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    total, c, h, w = x_shape
    per_chip = total // num_chips
    dx = np.zeros((total, c, h + 2 * ph, w + 2 * pw), dtype=cols_stack.dtype)
    dx_stack = dx.reshape(num_chips, per_chip, c, h + 2 * ph, w + 2 * pw)
    colsK = cols_stack.reshape(num_chips, c, kh, kw, per_chip, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            view = dx_stack[:, :, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            view += colsK[:, :, i, j].transpose(0, 2, 1, 3, 4)
    return _unpad(dx, h, w, ph, pw)


def _values(rng, shape):
    """Float64 values with exact signed zeros and repeated magnitudes mixed
    in, so any reordered addition or dropped sign shows in the bytes."""
    values = rng.standard_normal(shape)
    pick = rng.random(shape)
    values[pick < 0.15] = -0.0
    values[(pick >= 0.15) & (pick < 0.25)] = 0.0
    values[(pick >= 0.25) & (pick < 0.35)] = 1e16
    return values


def _assert_same(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _check_all_kernels(rng, num_chips, per_chip, c, h, w, kernel, stride, padding):
    total = num_chips * per_chip
    x = _values(rng, (total, c, h, w))

    cols, out_h, out_w = F.im2col(x, kernel, stride, padding)
    ref_cols, ref_h, ref_w = ref_im2col(x, kernel, stride, padding)
    assert (out_h, out_w) == (ref_h, ref_w)
    _assert_same(cols, ref_cols)
    assert cols.flags.c_contiguous

    colsT, _, _ = F.im2col_t(x, kernel, stride, padding)
    _assert_same(colsT, ref_im2col_t(x, kernel, stride, padding)[0])
    assert colsT.flags.c_contiguous

    stack, _, _ = _stacked_im2col_t(x, num_chips, kernel, stride, padding)
    _assert_same(stack, ref_stacked_im2col_t(x, num_chips, kernel, stride, padding)[0])
    assert stack.flags.c_contiguous

    x_shape = x.shape
    grad_cols = _values(rng, cols.shape)
    _assert_same(
        F.col2im(grad_cols, x_shape, kernel, stride, padding, out_h, out_w),
        ref_col2im(grad_cols, x_shape, kernel, stride, padding, out_h, out_w),
    )
    grad_t = _values(rng, colsT.shape)
    _assert_same(
        F.col2im_t(grad_t, x_shape, kernel, stride, padding, out_h, out_w),
        ref_col2im_t(grad_t, x_shape, kernel, stride, padding, out_h, out_w),
    )
    grad_stack = _values(rng, stack.shape)
    _assert_same(
        _stacked_col2im_t(
            grad_stack, x_shape, num_chips, kernel, stride, padding, out_h, out_w
        ),
        ref_stacked_col2im_t(
            grad_stack, x_shape, num_chips, kernel, stride, padding, out_h, out_w
        ),
    )
    return out_h * out_w < kernel[0] * kernel[1]


@pytest.mark.parametrize(
    "c, h, w, kernel, stride, padding, position_branch",
    [
        # LeNet conv2: a 2x2 output under a 5x5 kernel.
        (6, 6, 6, (5, 5), (1, 1), (0, 0), True),
        # LeNet conv1: 24x24 output, the offset loop.
        (1, 28, 28, (5, 5), (1, 1), (0, 0), False),
        # Kernel covering the whole padded input: degenerate 1x1 output.
        (3, 3, 3, (5, 5), (1, 1), (1, 1), True),
        # Overlapping strided windows on the position branch.
        (2, 5, 6, (4, 3), (2, 1), (1, 0), True),
    ],
    ids=["conv2", "conv1", "one-by-one", "strided"],
)
def test_lowering_kernels_match_offset_loops(c, h, w, kernel, stride, padding, position_branch):
    rng = np.random.default_rng(5)
    took_positions = _check_all_kernels(rng, 3, 2, c, h, w, kernel, stride, padding)
    assert took_positions == position_branch


@settings(max_examples=150, deadline=None)
@given(
    num_chips=st.integers(1, 3),
    per_chip=st.integers(1, 3),
    c=st.integers(1, 3),
    kh=st.integers(1, 5),
    kw=st.integers(1, 5),
    extra_h=st.integers(0, 6),
    extra_w=st.integers(0, 6),
    sh=st.integers(1, 3),
    sw=st.integers(1, 3),
    ph=st.integers(0, 2),
    pw=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_lowering_kernels_are_bit_exact(
    num_chips, per_chip, c, kh, kw, extra_h, extra_w, sh, sw, ph, pw, seed
):
    # The input is sized from the kernel so every draw is a valid conv.
    # Output positions range over 1..49 and kernel offsets over 1..25, so
    # draws land on both the position branch and the offset loop.
    h = max(1, kh + extra_h - 2 * ph)
    w = max(1, kw + extra_w - 2 * pw)
    if h + 2 * ph < kh or w + 2 * pw < kw:
        h, w = kh, kw
    _check_all_kernels(
        np.random.default_rng(seed), num_chips, per_chip, c, h, w,
        (kh, kw), (sh, sw), (ph, pw),
    )

