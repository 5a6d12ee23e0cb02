"""DOP853, the one integration loop: an explicit Runge-Kutta 8(5,3) pair run until a gap closes.

The method of Hairer, Norsett and Wanner (Solving Ordinary Differential
Equations I, sec. II.10): an order-8 step whose order-5 and order-3 error
estimates combine into one norm, step control by SAFETY, MIN_FACTOR and
MAX_FACTOR, a 16-stage order-7 dense output, and the run's end located on
the dense output by Brent's method. The caller hands the loop its sample
times t_eval and its gaps: functions g(t, y) that are positive while the
run may go on. The run ends at the earliest root, within a step, of a gap
that falls through zero over it (g >= 0 at the step's start, g <= 0 at
its end). Integration runs forward. Every floating-point operation that
reaches the state is the one SciPy 1.17's
scipy.integrate.solve_ivp(method="DOP853") performs with the gaps as
terminal events of direction -1 (_ivp/rk.py, _ivp/common.py, _ivp/ivp.py
and optimize/Zeros/brentq.c), in the same order, so a run gives the same
samples, event times, nfev and messages bit for bit. What the loop leaves
out touches no bits: the solver object and its wrapper layers, a fresh
array per stage (the right-hand side fun(t, y, out) writes each stage
into the row of the stage matrix K it is handed), a fresh array per
intermediate of a step (the new state alternates between two buffers,
and the error scale and estimates have one buffer each, written by the
same operations in the same order) and the per-step event lists.

The tableau and the loop are ported from SciPy, under its licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------- tableau
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

# Row i of A: the columns and values of its nonzero entries.
_A_ROWS = {
    1: ([0], [5.26001519587677318785587544488e-2]),
    2: ([0, 1], [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    3: ([0, 2], [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]),
    4: ([0, 2, 3], [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]),
    5: ([0, 3, 4], [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]),
    6: ([0, 3, 4, 5], [3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2]),
    7: ([0, 3, 4, 5, 6], [3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3]),
    8: ([0, 3, 4, 5, 6, 7], [6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]),
    9: ([0, 3, 4, 5, 6, 7, 8],
        [4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
         -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
         1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
         -2.03312017085086261358222928593e-2]),
    10: ([0, 3, 4, 5, 6, 7, 8, 9],
         [-9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
          1.09143734899672957818500254654, -8.14978701074692612513997267357,
          -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
          2.49360555267965238987089396762, -3.0467644718982195003823669022]),
    11: ([0, 3, 4, 5, 6, 7, 8, 9, 10],
         [2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
          -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
          2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
          -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
          6.43392746015763530355970484046e-1]),
    12: ([0, 5, 6, 7, 8, 9, 10, 11],
         [5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
          1.89151789931450038304281599044, -5.8012039600105847814672114227,
          3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
          2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]),
    13: ([0, 6, 7, 8, 9, 10, 11, 12],
         [5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1,
          -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1,
          1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
          7.56789766054569976138603589584e-3, -8.298e-3]),
    14: ([0, 5, 6, 7, 10, 11, 12, 13],
         [3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2,
          5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2,
          -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
          -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]),
    15: ([0, 5, 6, 7, 8, 12, 13, 14],
         [-4.28896301583791923408573538692e-1, -4.69762141536116384314449447206,
          7.68342119606259904184240953878, 4.06898981839711007970213554331,
          3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
          2.9475147891527723389556272149, -9.15095847217987001081870187138]),
}
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _i, (_cols, _vals) in _A_ROWS.items():
    A[_i, _cols] = _vals

B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]

# Rows 3..6 of the dense output; the first three rows come from the step itself.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
_D_COLS = [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
D[0, _D_COLS] = [
    -0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1]
D[1, _D_COLS] = [
    0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2]
D[2, _D_COLS] = [
    0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2]
D[3, _D_COLS] = [
    -0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3]

# -------------------------------------------------------------------- loop
SAFETY = 0.9
MIN_FACTOR = 0.2  # smallest factor a step size shrinks by
MAX_FACTOR = 10  # largest factor a step size grows by
ERROR_EXPONENT = -1 / (7 + 1)  # the error estimator is of order 7
EPS = np.finfo(float).eps
MIN_RTOL = 100 * EPS  # the smallest relative tolerance the step control is meant for
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
MESSAGES = {0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}


@dataclass
class OdeResult:
    """Samples y (n, len(t)) at times t, the gap that ended the run, and the counts.

    status is 0 (reached the end), 1 (a gap closed) or -1 (step size
    underflow), with message saying which. t_events[i] and y_events[i]
    hold the time and state at which gap i closed, if it ended the run.
    nfev counts right-hand-side calls, n_steps the accepted steps and
    n_rejected the rejected ones; njev is 0, since no Jacobian is used.
    """

    t: np.ndarray
    y: np.ndarray
    t_events: list
    y_events: list
    nfev: int
    status: int
    message: str
    n_steps: int
    n_rejected: int
    njev: int = 0


def _rms(x):
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, f1, interval, max_step, rtol, atol):
    """First step size by Hairer, Norsett and Wanner's rule (sec. II.4); one fun call into f1."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    fun(t0 + h0, y0 + h0 * f0, f1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
    return min(100 * h0, h1, interval, max_step)


def brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """A root of f bracketed by [xa, xb]: scipy.optimize.brentq, operation for operation.

    Brent's method with inverse quadratic extrapolation; stops when the
    bracket is below xtol + rtol * |x|. Raises ValueError if f(xa) and
    f(xb) have the same sign or f returns NaN, RuntimeError after maxiter
    iterations.
    """
    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _dense_output(fun, stages, K, t_old, y_old, y, h):
    """The seven rows F of the interpolant over the step from t_old; three fun calls into K[13:16]."""
    for KT, a, c, out in stages[N_STAGES + 1:]:
        fun(t_old + c * h, y_old + np.dot(KT, a) * h, out)
    F = np.empty((INTERPOLATOR_POWER, y.size))
    f_old, f, delta_y = K[0], K[N_STAGES], y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)
    return F


def _interpolate(F, t_old, h, y_old, t):
    """The dense output over the step from t_old: a state at a time t, one row per time in an array t."""
    x = (t - t_old) / h
    if np.ndim(x):
        x = x[:, None]
    y = np.zeros(np.shape(x)[:-1] + y_old.shape)
    for i, f in enumerate(F[::-1]):
        y += f
        y *= x if i % 2 == 0 else 1 - x
    y += y_old
    return y


def solve_ivp(fun, t_span, y0, t_eval, events, rtol, atol, max_step=np.inf) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span = (t0, t_bound), t_bound > t0, sampled at t_eval.

    fun(t, y, out) writes the derivative into out. Each of events is a gap
    g(t, y): the earliest root in a step of a gap that is >= 0 at the
    step's start and <= 0 at its end ends the run. rtol >= MIN_RTOL. The
    y that fun and the gaps are handed may be one of the loop's buffers,
    valid for that call only; y0 itself is never written.
    """
    if rtol < MIN_RTOL:
        raise ValueError(f"rtol must be at least {MIN_RTOL}")
    t, t_bound = map(float, t_span)
    y = np.asarray(y0, dtype=float)
    atol = np.asarray(atol)
    n = y.size
    K = np.empty((N_STAGES_EXTENDED, n))  # the stages, one row each
    stages = [(K[:s].T, A[s, :s], float(C[s]), K[s]) for s in range(N_STAGES_EXTENDED)]
    KT_error = K[:N_STAGES + 1].T
    dy, y_stage = np.empty(n), np.empty(n)
    # y_new alternates between two buffers, so the step's start y is never written
    y_a, y_b = np.empty(n), np.empty(n)
    scale, err5, err3 = np.empty(n), np.empty(n), np.empty(n)
    f = K[N_STAGES]  # the derivative at (t, y); a step's last stage is the next one's first
    fun(t, y, f)
    h_abs = _initial_step(fun, t, y, f, K[1], t_bound - t, max_step, rtol, atol)
    nfev, n_steps, n_rejected = 2, 0, 0

    g = [event(t, y) for event in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    t_eval = np.asarray(t_eval, dtype=float)
    eval_times, i_eval = t_eval.tolist(), 0
    ts, ys = [], []
    status = None
    while status is None:
        # one step (RungeKutta._step_impl), tried until its error norm is below 1
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else min_step if h_abs < min_step else h_abs
        K[0] = f
        y_new = y_b if y is y_a else y_a
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            for KT, a, c, out in stages[1:N_STAGES]:
                np.dot(KT, a, out=dy)
                dy *= h
                fun(t + c * h, np.add(y, dy, out=y_stage), out)
            np.dot(stages[N_STAGES][0], B, out=dy)
            dy *= h
            fun(t + h, np.add(y, dy, out=y_new), f)
            nfev += N_STAGES
            np.maximum(np.abs(y, out=scale), np.abs(y_new, out=dy), out=scale)
            scale *= rtol
            scale += atol
            np.dot(KT_error, E5, out=err5)
            err5 /= scale
            np.dot(KT_error, E3, out=err3)
            err3 /= scale
            err5_norm_2, err3_norm_2 = np.sqrt(err5.dot(err5)) ** 2, np.sqrt(err3.dot(err3)) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5_norm_2 / np.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * n)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
            n_rejected += 1
        if status == -1:
            break
        n_steps += 1
        t_old, y_old, t, y = t, y, t_new, y_new
        if t >= t_bound:
            status = 0
        F = None  # the step's interpolant, built on first use
        g_new = [event(t, y) for event in events]
        active = [i for i, (a, b) in enumerate(zip(g, g_new)) if a >= 0 >= b]
        g = g_new
        if active:
            F = _dense_output(fun, stages, K, t_old, y_old, y, h)
            nfev += 3
            roots = np.asarray([
                brentq(lambda s, event=events[i]: event(s, _interpolate(F, t_old, h, y_old, s)),
                       t_old, t, 4 * EPS, 4 * EPS)
                for i in active])
            first = np.argsort(roots)[0]
            t = roots[first]
            y = _interpolate(F, t_old, h, y_old, t)
            t_events[active[first]].append(t)
            y_events[active[first]].append(y)
            status = 1
        j = bisect_right(eval_times, t)
        if j > i_eval:
            if F is None:
                F = _dense_output(fun, stages, K, t_old, y_old, y, h)
                nfev += 3
            ts.append(t_eval[i_eval:j])
            ys.append(_interpolate(F, t_old, h, y_old, t_eval[i_eval:j]))
            i_eval = j

    return OdeResult(
        t=np.concatenate(ts) if ts else np.empty(0),
        y=(np.concatenate(ys) if ys else np.empty((0, n))).T,
        t_events=[np.asarray(te) for te in t_events],
        y_events=[np.asarray(ye) for ye in y_events],
        nfev=nfev, status=status, message=MESSAGES.get(status, TOO_SMALL_STEP),
        n_steps=n_steps, n_rejected=n_rejected,
    )
