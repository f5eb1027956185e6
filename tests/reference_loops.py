"""Scalar RK4 loops of both models: the oracle the vectorized integrators are
tested against, and the source of the samples their passivity check names.
Also the closed form as written, the oracle of its stepped evaluation, and
the step maps built by stepping the unit vectors through a generic rhs, the
oracle of the per-entry maps. And the monomial raw vectors and the QR that
orthonormalizes them, the low-order reference of the polynomial family's
recurrence."""

import math
import re

import numpy as np

from tmcavity import DegenerateBasisError, cumulative_integral, quadrature_weights
from tmcavity.cavity import _STEP_BLOCK
from tmcavity.modes import _require_unit_seed


def polynomial_raw_basis(seed, count, center):
    """Raw vectors (t - center)^k * seed for k = 1..count, as ``(count, n)`` rows.

    Fed to :func:`gram_schmidt_family` they give the polynomial family by a
    complex QR; the monomials are ill-conditioned, so the two
    agree only at low order. A row that overflows raises
    :class:`DegenerateBasisError`.
    """
    u = seed.grid.times - center
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.cumprod(np.broadcast_to(u, (count, len(u))), axis=0) * seed.values
    bad = np.flatnonzero(~np.isfinite(raw).all(axis=1))
    if bad.size:
        raise DegenerateBasisError(f"raw vector {bad[0]} overflows double precision")
    return raw


def gram_schmidt_family(seed, raw_basis):
    """The seed and the ``(count, n)`` raw vectors orthonormalized in order,
    as ``(count + 1, n)`` rows, by one Householder QR of the
    quadrature-weighted vectors: Gram-Schmidt, orthonormal by construction.

    Mode 0 is the seed itself, which must be unit norm; mode k + 1 is the
    part of raw vector k orthogonal to the earlier ones, phased so that its
    overlap with raw vector k is real and positive. A raw vector that is not
    finite, whose weighted norm overflows, or whose post-projection norm (the
    R diagonal) falls below 1e-8 raises :class:`DegenerateBasisError`
    naming its index.
    """
    _require_unit_seed(seed)
    bad = np.flatnonzero(~np.isfinite(raw_basis).all(axis=1))
    if bad.size:
        raise DegenerateBasisError(f"raw vector {bad[0]} is not finite")
    sqw = np.sqrt(quadrature_weights(seed.grid))
    with np.errstate(over="ignore", invalid="ignore"):
        q, r = np.linalg.qr((np.vstack((seed.values, raw_basis)) * sqw).T)
    # A reduced QR has min(n_samples, count + 1) columns; any raw vector
    # beyond that is necessarily dependent and keeps a zero norm here. The
    # raw vectors are finite, so a non-finite norm is one that overflowed.
    norms = np.zeros(len(raw_basis) + 1)
    norms[: len(r)] = np.abs(np.diagonal(r))
    bad = np.flatnonzero(~(np.isfinite(norms[1:]) & (norms[1:] >= 1e-8)))
    if bad.size and not np.isfinite(norms[bad[0] + 1]):
        raise DegenerateBasisError(
            f"raw vector {bad[0]} has a weighted norm that overflows double precision"
        )
    if bad.size:
        raise DegenerateBasisError(
            f"raw vector {bad[0]} is linearly dependent on the family "
            f"(post-projection norm {norms[bad[0] + 1]:.3e})"
        )
    q *= np.diagonal(r) / norms
    q /= sqw[:, None]
    q[:, 0] = seed.values
    return np.ascontiguousarray(q.T)


def reference_closed_form(params, control, s_in):
    """C(t) = i g_s exp(-f_s eps) * trapezoid integral of exp(f_s eps) Omega S_in,
    term for term as written: exp(f_s eps) overflows once f_s eps passes 709."""
    eps = cumulative_integral(control)
    kernel = np.exp(params.f_s * eps) * control.values * s_in.values
    integ = np.zeros_like(kernel)
    integ[1:] = np.cumsum(0.5 * control.grid.dt * (kernel[1:] + kernel[:-1]))
    return 1j * params.g_s * np.exp(-params.f_s * eps) * integ


def reference_full(params, control, s_in, from_rest=False):
    """The scalar RK4 loop the step-map integrator replaced, its arithmetic
    kept verbatim.

    Returns the raw S and C arrays, non-finite samples included. With
    ``from_rest`` every step starts from the empty cavity, so sample k + 1
    holds the one-step drive increment of step k instead of the state.
    """
    n = control.grid.n_samples
    dt = control.grid.dt
    gts = float(params.gamma_tilde_s)
    gtc = float(params.gamma_tilde_c)
    r2gs = float(np.sqrt(2.0 * params.gamma_s))
    ia = 1j * float(params.alpha)
    om = control.values.tolist()
    si = s_in.values.tolist()

    s_arr = np.empty(n, dtype=complex)
    c_arr = np.empty(n, dtype=complex)
    s = 0j
    c = 0j
    s_arr[0] = s
    c_arr[0] = c
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n - 1):
        if from_rest:
            s = c = 0j
        o0 = om[k]
        o1 = om[k + 1]
        oh = 0.5 * (o0 + o1)
        f0 = si[k]
        f1 = si[k + 1]
        fh = 0.5 * (f0 + f1)

        ds1 = ia * o0.conjugate() * c - gts * s + r2gs * f0
        dc1 = ia * o0 * s - gtc * c
        s2 = s + h2 * ds1
        c2 = c + h2 * dc1
        ds2 = ia * oh.conjugate() * c2 - gts * s2 + r2gs * fh
        dc2 = ia * oh * s2 - gtc * c2
        s3 = s + h2 * ds2
        c3 = c + h2 * dc2
        ds3 = ia * oh.conjugate() * c3 - gts * s3 + r2gs * fh
        dc3 = ia * oh * s3 - gtc * c3
        s4 = s + dt * ds3
        c4 = c + dt * dc3
        ds4 = ia * o1.conjugate() * c4 - gts * s4 + r2gs * f1
        dc4 = ia * o1 * s4 - gtc * c4

        s = s + h6 * (ds1 + 2.0 * (ds2 + ds3) + ds4)
        c = c + h6 * (dc1 + 2.0 * (dc2 + dc3) + dc4)
        s_arr[k + 1] = s
        c_arr[k + 1] = c
    return s_arr, c_arr


def reference_reduced(params, control, s_in, from_rest=False):
    """The scalar RK4 loop of the reduced model, kept verbatim, plus the
    algebraic S reconstruction. ``from_rest`` as in :func:`reference_full`."""
    n = control.grid.n_samples
    dt = control.grid.dt
    gtc = float(params.gamma_tilde_c)
    fs = float(params.f_s)
    igs = 1j * float(params.g_s)
    om = control.values.tolist()
    si = s_in.values.tolist()

    c_arr = np.empty(n, dtype=complex)
    c = 0j
    c_arr[0] = c
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n - 1):
        if from_rest:
            c = 0j
        o0 = om[k]
        o1 = om[k + 1]
        oh = 0.5 * (o0 + o1)
        f0 = si[k]
        f1 = si[k + 1]
        fh = 0.5 * (f0 + f1)
        a0 = -fs * (o0.real * o0.real + o0.imag * o0.imag) - gtc
        ah = -fs * (oh.real * oh.real + oh.imag * oh.imag) - gtc
        a1 = -fs * (o1.real * o1.real + o1.imag * o1.imag) - gtc

        dc1 = a0 * c + igs * o0 * f0
        dc2 = ah * (c + h2 * dc1) + igs * oh * fh
        dc3 = ah * (c + h2 * dc2) + igs * oh * fh
        dc4 = a1 * (c + dt * dc3) + igs * o1 * f1
        c = c + h6 * (dc1 + 2.0 * (dc2 + dc3) + dc4)
        c_arr[k + 1] = c

    s_arr = (
        1j * (params.alpha / params.gamma_tilde_s) * np.conj(control.values) * c_arr
        + np.sqrt(2.0 * params.gamma_s) / params.gamma_tilde_s * s_in.values
    )
    return s_arr, c_arr


def first_unbounded_sample(reference, params, control, s_in):
    """First sample at which a loop's state outgrows the drive fed in so far.

    The cavity is passive, so the state norm at sample k is at most the sum
    of the one-step drive increments of steps 0..k-1, plus 1e-9 of the
    whole-run sum for rounding. Norms go through ``abs``/``hypot``, never
    squares, so denormal amplitudes keep their size. The reduced model's
    state is C alone. Returns None when every sample keeps the bound.
    """
    with np.errstate(all="ignore"):
        states = np.array(reference(params, control, s_in))
        steps = np.array(reference(params, control, s_in, from_rest=True))
        if reference is reference_reduced:
            states, steps = states[1:], steps[1:]
        fed = np.cumsum(np.hypot.reduce(np.abs(steps), axis=0))
        norms = np.hypot.reduce(np.abs(states), axis=0)
        bad = np.flatnonzero(~(norms <= fed + 1e-9 * fed[-1]))
    return int(bad[0]) if bad.size else None


def named_sample(exc):
    """The sample an :class:`InstabilityError` message names."""
    return int(re.search(r"at sample (\d+) ", str(exc)).group(1))


def reference_full_rhs(params):
    gts, gtc = params.gamma_tilde_s, params.gamma_tilde_c
    r2gs, ia = math.sqrt(2.0 * params.gamma_s), 1j * params.alpha
    return lambda x, o, f: np.array(
        (ia * o.conj() * x[1] - gts * x[0] + r2gs * f, ia * o * x[0] - gtc * x[1])
    )


def reference_reduced_rhs(params):
    fs, gtc, igs = params.f_s, params.gamma_tilde_c, 1j * params.g_s
    return lambda x, o, f: (
        (-fs * (o.real * o.real + o.imag * o.imag) - gtc) * x + igs * o * f
    )


def reference_step_maps(rhs, dim, dt, control, drives):
    """The generic block stepper the per-entry step maps replaced, kept
    with its rhs lambdas above; they must give the same bits.

    Fixed RK4 steps of the whole window as affine maps x -> M x + V.

    ``rhs(x, o, f)`` returns the derivatives of the ``dim`` amplitudes
    ``x[i]`` under control ``o`` and drive ``f`` as one array. ``drives``
    is an ``(m, n_samples)`` array of signal-band drives. Stepping the unit
    vectors with zero drive gives the columns of M, and zero with a drive
    gives that drive's column; drives are linearly interpolated at the
    half steps. The steps are taken in blocks of _STEP_BLOCK, which bounds
    the RK4 temporaries, and the maps are returned as one
    ``(dim, dim + m, n_steps)`` array: M_k is ``[:, :dim, k]`` and V_k is
    ``[:, dim:, k]``.

    A single row is stepped itself. Two or more rows step the two unit
    drives with (start, half step, end) values (1, 1/2, 0) and (0, 1/2, 1)
    to P_k and Q_k; a step is linear in the drive at its two ends, so each
    row's V_k = P_k f_k + Q_k f_{k+1}, as one broadcast product.
    """
    om = control.values
    n_steps = len(om) - 1
    if len(drives) == 1:
        f0, f1 = drives[:, :-1], drives[:, 1:]
    else:
        f0 = np.broadcast_to([[1.0], [0.0]], (2, n_steps))
        f1 = f0[::-1]
    x = np.eye(dim, dim + len(f0), dtype=complex)[:, :, None]
    maps = np.empty(x.shape[:2] + (n_steps,), dtype=complex)
    for k0 in range(0, n_steps, _STEP_BLOCK):
        k1 = min(k0 + _STEP_BLOCK, n_steps)
        zero = np.zeros((dim, k1 - k0))
        o0, o1 = om[k0:k1], om[k0 + 1 : k1 + 1]
        fs0 = np.concatenate((zero, f0[:, k0:k1]))
        fs1 = np.concatenate((zero, f1[:, k0:k1]))
        oh, fh = 0.5 * (o0 + o1), 0.5 * (fs0 + fs1)
        d1 = rhs(x, o0, fs0)
        d2 = rhs(x + 0.5 * dt * d1, oh, fh)
        d3 = rhs(x + 0.5 * dt * d2, oh, fh)
        d4 = rhs(x + dt * d3, o1, fs1)
        maps[:, :, k0:k1] = x + dt / 6.0 * (d1 + 2.0 * (d2 + d3) + d4)
    if len(drives) == 1:
        return maps
    p, q = maps[:, dim : dim + 1], maps[:, dim + 1 :]
    v = p * drives[:, :-1]
    v += q * drives[:, 1:]
    return np.concatenate((maps[:, :dim], v), axis=1)
