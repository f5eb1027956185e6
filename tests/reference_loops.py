"""Scalar RK4 loops of both models: the oracle the vectorized integrators are
tested against, and the source of the samples their passivity check names.
Also the closed form as written, the oracle of its stepped evaluation."""

import re

import numpy as np

from tmcavity import cumulative_integral


def reference_closed_form(params, control, s_in):
    """C(t) = i g_s exp(-f_s eps) * trapezoid integral of exp(f_s eps) Omega S_in,
    term for term as written: exp(f_s eps) overflows once f_s eps passes 709."""
    eps = cumulative_integral(control).values.real
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
