"""Independent oracles for the test suite.

Frozen constants were generated by Gauss-Legendre quadrature at 50
significant digits (mpmath) in v = -log(1-t) coordinates, where every
integrand in this package is analytic and the tail decays like exp(-v);
segment lists [0, 0.02, 0.2, 1, 5, 15, 40, 80] (full-line integrals) or
[0, vT/50, vT/5, vT] (truncated ones).  Each value was cross-checked
against scipy QUADPACK and a 4 million point longdouble Simpson rule;
the three routes agree to at least 1e-15.  None of them share code with
the package's float64 adaptive Gauss-Kronrod route.

The large-y Lambda values (LAMBDAS_*_LARGE_Y) were generated the same
way at 50 digits, on segments split at (1, 2, 5) * 10^k / (c y) for
k = -16..2, c the integrand's y coefficient (1-p and p for sticky, k for
duplication, (1-p)/p and 1/p for truncated), up to v = 90 or vT; the
truncated ones are also split at vT (1 - 2^-j), j = 1..29, where w2 = -1
makes w2^y e^v a spike of width ~1/(c y).  Below v = 1e-30 the integrand
is replaced by its Taylor limit.  Gauss-Legendre and tanh-sinh on the same
segments agree to 1e-24, except for six values at y = 10 000 where they
agree to 1e-11.

Live helpers: a composite Simpson rule in longdouble and a textbook
dynamic-programming edit distance, both written independently of the
package implementations they check; and the Monte Carlo run as a plain
per-trial loop over the simulator's single-trial functions, the reference
for its batched run.
"""

from __future__ import annotations

import math

import numpy as np

from repeatcap import simulate

# integral of f1(y, t) over t in [0, 1] for the sticky construction,
# f1 = (1 + t - t y (1-p) - (1-t)^(y-1) / (1-pt)^y) / (t log(1-t))
LAMBDA1_STICKY = {
    (1, 0.3): 0.0718937861978697778029,
    (5, 0.3): 1.04198047945836863296,
    (10, 0.3): 6.42468235014017071988,
    (50, 0.5): 54.5322456033007360447,
}

# integral of f2(y, t) = (1 - (1+pt)^-y - t y p) / (t log(1-t))
LAMBDA2_STICKY = {
    (1, 0.3): 0.0557599859807880522241,
    (10, 0.3): 2.34414896114053836525,
}

G_STICKY = {
    (1, 0.3): -0.127653772178657830027,  # log 0! - L1(1) - L2(1)
    (10, 0.3): 4.03299616880076052608,
}

# duplication integrals, integrand (1 - w(k,t)^y - t y k/(1+p)) / (t log(1-t))
# with w = 2(1-kt) / (sqrt((1+p)^2 - 4pkt) + 1 - p), for k = 1, p, 1-p
LAMBDAS_DUPLICATION = {
    (1, 0.2): (
        -0.0921225939332444740865,
        -0.00328621452555455436806,
        -0.0570801496981417493184,
    ),
}

# truncated-deletion integrals over t in [0, 2p/(1+2p)], integrand
# (1 + t - t y c - w^y/(1-t)) / (t log(1-t)); which=1: c=(1-p)/p,
# w=(p-t)/(p(1-t)); which=2: c=1/p, w=(p-t(1+p))/(p(1-t))
LAMBDA_TRUNC_GEOMDEL = {
    (5, 0.5): (1.14025751895683949788, 8.23034728628726571109),
    (0, 0.5): (0.589373787380956510321, 0.589373787380956510321),
}

# Lambda values at large y, keyed by (y, p): the sticky (Lambda_1,
# Lambda_2), the duplication integrals for k = 1, p, 1-p and the truncated
# (Lambda_1, Lambda_2), with the integrands above
LAMBDAS_STICKY_LARGE_Y = {
    (1000, 0.3): (3883.2497055227550286, 1415.55501860355947067),
    (3000, 0.3): (13961.2986262227284387, 5227.12523856041846729),
    (10000, 0.3): (54972.0001093433207049, 21024.6747699821636639),
    (1000, 0.9): (358.682783707056003987, 5227.42500512814160341),
    (3000, 0.9): (1408.75159284400191569, 18638.5383432205608899),
    (10000, 0.9): (5904.77028074289142902, 72951.2400935654558665),
}
LAMBDAS_DUPLICATION_LARGE_Y = {
    (1000, 0.3): (4346.78812852982883745, 1028.91364484787227968, 2851.94013433572686052),
    (3000, 0.3): (15567.813406472623475, 3839.92603558281590477, 10322.7111222094231133),
    (10000, 0.3): (61143.6085616744678506, 15568.2068442094392912, 40881.5581463054198276),
    (1000, 0.9): (2775.56663925677699703, 2448.50488657262444596, 159.312240823300873551),
    (3000, 0.9): (10053.8209141676803391, 8899.1734290762966372, 645.255429586998222148),
    (10000, 0.9): (39839.3301320250331574, 35356.8386314678967608, 2776.02758014927435658),
}
LAMBDAS_TRUNC_LARGE_Y = {
    (1000, 0.3): (14363.807408348530522, 21709.2270779931609479),
    (3000, 0.3): (50787.053612035124022, 76120.5035190645593985),
    (10000, 0.3): (197390.433312112627305, 293876.576164066209574),
    (1000, 0.9): (387.567016620298903907, 6446.07285794258237992),
    (3000, 0.9): (1531.3842935567557379, 23006.0384075900127465),
    (10000, 0.9): (6446.57268897569284164, 90072.3330405091786846),
}

# R_p(x) = -int_{2p/(1+2p)}^1 (1-t)^(x-1) (1 - ((1-p)/(1-p(1-t)))^x)
#          / (t log(1-t)) dt
R_P = {
    (1, 0.5): 0.225861091721509186531,
    (1, 0.3): 0.204865200828941926249,
    (3, 0.3): 0.101788125814805751574,
}

# R_p(x) at small p by mpmath.quad at 40 digits, in v = -log(1-t)
# coordinates on [log(1+2p), inf) split at log(1+2p) * 10^k (k = 1.. while
# below 1) and at 1, 3, 10, 30, 100; 50 digits agree to 1e-42.  Keyed by p,
# then x; p is the double nearest 1e-4 or 1e-5.
R_P_SMALL_P = {
    1e-4: {
        1: 0.0007941002289640451563346574,
        50: 0.02019191209473460974714444,
        500: 0.09115757321726188606158569,
    },
    1e-5: {1: 0.0001024268811469421532809323},
}

# I_p = int_{2p/(1+2p)}^1 dt / (-t log(1-t)); the substitution t -> 1-u makes
# it -eta(1/(1+2p)), eta(z) = int_0^z dt / ((1-t) log t), and both routes
# agree to 21 digits
I_P_ENVELOPE = {
    0.3: 1.08068596034642858166,
    0.5: 0.571498743652464668416,
    0.6: 0.45365037849566484275,
    0.9: 0.270192774484700146712,
}

# sum over y >= 1 of q^y exp(g(y) - y h(p)) for the sticky dual at
# p = 0.3, q = 0.5, summed to y = 160 in 50-digit arithmetic with every
# g(y) from the Gauss-Legendre lambdas (terms decay like 0.5^y/sqrt(y);
# y > 160 contributes < 1e-49)
STICKY_NORMALIZER_P03_Q05 = 0.38043498505577985085
STICKY_LOG_NORMALIZER_P03_Q05 = -0.966439983413146897664
STICKY_MEAN_P03_Q05 = 1.64142835547203301225

LI_HALF = -0.378671043061087976727  # logarithmic integral at 1/2 (mpmath li)
LI_THIRD = -0.186411396831567143349
BINARY_ENTROPY_QUARTER = 0.562335144618808350288
LOG_GAMMA_4_5 = 2.4537365708424422205

# smallest KL-gap of the deletion convexity dual at p = 0.5 over
# x = 1..500 plus the large-x limit; two independent series
# implementations and a direct truncated-KL summation agree on it
EPSILON_CONV_HALF = 0.5844038221104629

# KL-gap Delta(x) of the deletion convexity dual at delta = 1, keyed by p
# (the double nearest each value), then x.  Summed directly over the
# support in 45-digit mpmath, not by any integral: Delta(x) = H(Y_x) +
# sum_{y>=1} Y_x(y) S(y), Y_x(y) = C(y+x-1, y) (1-p)^x p^y and
# S(y) = log C(y/p - 1, y) - y h(p)/p, every term from mpmath.loggamma,
# outward from the mode until a term and its mass fall under 1e-50.  The
# summed mass is 1 within 1e-40 at every key.
CONV_GAP = {
    0.3: {
        1: 0.482337912113862695650605115731,
        7: 0.557204348343315838077308022814,
        64: 0.502407549679255261525723524722,
        500: 0.500291158359585904734049124606,
    },
    0.6: {
        1: 0.595759597274412257785737446473,
        7: 0.494924511606911727273569224687,
        64: 0.499304263408481244758438310409,
        500: 0.499911088368133092879713714175,
    },
    0.9: {
        1: 0.409641228314338781745527990173,
        7: 0.477402654314156299304802997453,
        64: 0.497774501664750751521743070749,
        500: 0.499718090611951246644685209641,
    },
    0.99: {
        1: 0.205151239506056966343729498,
        7: 0.47373865967280963080659251065,
        64: 0.497404566198451673946183780001,
        500: 0.499671189485016554589157641898,
    },
    0.999: {
        1: 0.163847244005663872861289645831,
        7: 0.473386892139823557419622991766,
        64: 0.497368910596993203863711442185,
        500: 0.499666666766329429010276595691,
    },
}


def simpson_longdouble(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with longdouble accumulation.

    f must accept a longdouble numpy array of nodes and return the
    integrand values; the endpoints are included, so callers supply a
    form (or analytic limit) that is finite there.
    """
    xs = np.linspace(np.longdouble(a), np.longdouble(b), 2 * panels + 1)
    fx = np.asarray(f(xs), dtype=np.longdouble)
    weights = np.ones(xs.size, dtype=np.longdouble)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (np.longdouble(b) - np.longdouble(a)) / panels
    return float(h / 6.0 * np.sum(weights * fx))


def sticky_f1_raw_v(y: float, p: float, vs: np.ndarray) -> np.ndarray:
    """Raw sticky f1 integrand in v coordinates (Jacobian included),
    longdouble, with the analytic value at v = 0."""
    vs = np.asarray(vs, dtype=np.longdouble)
    out = np.empty_like(vs)
    zero = vs == 0
    out[zero] = 1.0 + y * (1.0 - p) * (y * (1.0 - p) - 3.0 - p) / 2.0
    v = vs[~zero]
    t = 1.0 - np.exp(-v)
    num = 1.0 + t - t * y * (1.0 - p) - (1.0 - t) ** (y - 1.0) / (1.0 - p * t) ** y
    with np.errstate(divide="ignore"):  # t rounds to 1 for v >~ 44
        out[~zero] = num / (t * np.log1p(-t)) * np.exp(-v)
    return out


def dp_last_column(a, b) -> list[int]:
    """The textbook O(len(a) * len(b)) Levenshtein DP's last column: entry r
    is the distance between a[:r] and all of b."""
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    column = [len(b)]
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
        column.append(cur[len(b)])
    return column


def dp_edit_distance(a, b) -> int:
    """Textbook Levenshtein distance, the DP's corner."""
    return dp_last_column(a, b)[-1]


def monte_carlo_reference(config):
    """(success_rate, reports) of run_monte_carlo, one trial at a time.

    Each trial draws its input and its channel output from its own spawned
    stream, run-length decodes the output and takes edit_distance.
    """
    reports = []
    for child in np.random.SeedSequence(config.seed).spawn(config.trials):
        rng = np.random.default_rng(child)
        x = simulate._input_bits(config, rng)
        y = simulate.sample_channel_output(x, config.lam, rng)
        dist = simulate.edit_distance(x, simulate.run_length_decode(y, config.lam))
        reports.append(
            simulate.TrialReport(
                edit_distance=int(dist),
                output_length=int(y.size),
                success=bool(dist <= config.epsilon * config.n),
            )
        )
    return sum(r.success for r in reports) / len(reports), reports
