"""The integer moment kernel against its first, plain form, and its memo."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catqkd import (
    CatalysisConfig,
    ConsistencyError,
    ProtocolParams,
    SchemeFamily,
    SourceParams,
    catalysis,
    max_distance,
    optimize,
)


def _plain_mul(p, q):
    # C(l,i) C(l,j) = sum_k C(k,i) C(i,k-j) C(l,k), one term at a time
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            for k in range(max(i, j), i + j + 1):
                out[k] += pi * qj * (math.comb(k, i) * math.comb(i, k - j))
    return out


def _plain_moments(cfg, src):
    """The kernel as first written: general products and a power per term of each sum."""
    def arm(photons, t):
        a, b = t.as_integer_ratio()
        return [math.comb(photons, s) * (a - b)**s * a**(photons - s)
                for s in range(photons + 1)], a**photons

    (arm1, s1), (arm2, s2) = arm(cfg.m, cfg.t1), arm(cfg.n, cfg.t2)
    (a1, b1), (a2, b2) = cfg.t1.as_integer_ratio(), cfg.t2.as_integer_ratio()
    c, d = (f * f for f in src.alpha.as_integer_ratio())
    num, den = c * a1 * a2, d * b1 * b2 + c * (b1 * b2 - a1 * a2)

    def total(p):
        return sum(pj * num**j * den ** (len(p) - 1 - j) for j, pj in enumerate(p))

    q = _plain_mul(arm1, arm2)
    q_next = [qj + qk for qj, qk in zip(q, q[1:] + [0])]
    q2 = _plain_mul(q, q)
    norm = total(q2)
    pd = norm * d * b1 * b2 / (b1**cfg.m * b2**cfg.n * s1 * s2 * den ** len(q2))
    if not 0.0 < pd <= 1.0 + 1e-9:
        raise ConsistencyError(f"success probability {pd} outside (0, 1]")
    nbar = total(_plain_mul(q2, [0, 1])) / (den * norm)
    corr = total(_plain_mul(_plain_mul(q, q_next), [1, 1])) / (den * norm)
    return pd, 2.0 * nbar + 1.0, 2.0 * src.lam * math.sqrt(cfg.t1 * cfg.t2) * corr


def _outcome(moments, m, n, t1, t2, alpha):
    """The bits of ``(pd, x, z)``, or the class and message of the refusal."""
    try:
        return [v.hex() for v in moments(CatalysisConfig(m, n, t1, t2), SourceParams(alpha))]
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)


TRANSMITTANCE = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([1.0, 1e-3])
ALPHA = st.floats(0.0, 700.0) | st.sampled_from([0.0, 700.0])


@settings(max_examples=200, deadline=None)
@given(m=st.integers(0, 5), n=st.integers(0, 5), t1=TRANSMITTANCE, t2=TRANSMITTANCE,
       alpha=ALPHA)
@example(m=0, n=0, t1=1.0, t2=1.0, alpha=0.0)
@example(m=5, n=5, t1=1.0, t2=1.0, alpha=700.0)
@example(m=5, n=5, t1=1e-3, t2=1e-3, alpha=700.0)
@example(m=0, n=5, t1=1.0, t2=1e-3, alpha=0.0)
@example(m=5, n=0, t1=1e-3, t2=1.0, alpha=-0.0)
@example(m=2, n=3, t1=0.95, t2=0.7, alpha=3.0)
@example(m=2, n=0, t1=5e-324, t2=1.0, alpha=0.0)   # refused: p_d rounds to 0
@example(m=1, n=0, t1=5e-324, t2=1.0, alpha=0.0)   # refused: a ratio overflows a float
def test_kernel_equals_the_plain_sums(m, n, t1, t2, alpha):
    want = _outcome(_plain_moments, m, n, t1, t2, alpha)
    if want[0] is OverflowError:  # the kernel refuses the same input, naming it
        want = (ConsistencyError,
                f"moments overflow a float at (m, n, t1, t2, alpha) = {(m, n, t1, t2, alpha)}")
    catalysis._exact_moments.cache_clear()
    assert _outcome(catalysis._moments, m, n, t1, t2, alpha) == want   # computed
    assert _outcome(catalysis._moments, m, n, t1, t2, alpha) == want   # from the memo


def test_product_table_is_the_binomial_identity():
    for len_p in range(1, 12):
        for len_q in range(1, 12):
            terms = {(i, j): dict(ks) for i, j, ks in catalysis._products(len_p, len_q)}
            for i in range(len_p):
                for j in range(len_q):
                    ks = terms[(i, j) if (i, j) in terms else (j, i)]
                    for ell in range(13):
                        assert math.comb(ell, i) * math.comb(ell, j) == \
                            sum(c * math.comb(ell, k) for k, c in ks.items())


def test_memo_keeps_the_sign_of_a_negative_zero_alpha():
    cfg = SchemeFamily("bsqc", 1).at(0.9)
    catalysis._exact_moments.cache_clear()
    assert math.copysign(1.0, catalysis._moments(cfg, SourceParams(0.0))[2]) == 1.0
    pd, x, z = catalysis._moments(cfg, SourceParams(-0.0))
    assert catalysis._exact_moments.cache_info().hits == 1
    assert z == 0.0 and math.copysign(1.0, z) == -1.0
    assert (pd, x, z) == _plain_moments(cfg, SourceParams(-0.0))


def test_memo_serves_an_integer_transmittance_what_a_float_gets():
    src = SourceParams(1.5)
    catalysis._exact_moments.cache_clear()
    by_int = catalysis._moments(CatalysisConfig(2, 1, 1, 0.8), src)
    by_float = catalysis._moments(CatalysisConfig(2, 1, 1.0, 0.8), src)
    assert catalysis._exact_moments.cache_info().hits == 1
    assert [v.hex() for v in by_int] == [v.hex() for v in by_float]
    assert by_float == _plain_moments(CatalysisConfig(2, 1, 1.0, 0.8), src)


def test_memo_refuses_again_on_a_repeat_call():
    cfg, src = CatalysisConfig(2, 0, 5e-324, 1.0), SourceParams(0.0)
    catalysis._exact_moments.cache_clear()
    for _ in range(2):
        with pytest.raises(ConsistencyError, match=r"success probability 0\.0 outside \(0, 1\]"):
            catalysis.success_probability(cfg, src)
    assert catalysis._exact_moments.cache_info().currsize == 0


@pytest.mark.parametrize("t1", [1e-310, 5e-324])
def test_an_overflowing_moment_is_refused_with_its_inputs(t1):
    # at alpha = 0 the correlation sum over p_d overflows a float for a subnormal t1
    with pytest.raises(ConsistencyError, match=re.escape(f"(1, 0, {t1}, 1.0, 0.0)")):
        catalysis.success_probability(CatalysisConfig(1, 0, t1, 1.0), SourceParams(0.0))


def test_memo_serves_repeated_probes_of_a_distance_search():
    optimize._grid_states.cache_clear()
    catalysis._exact_moments.cache_clear()
    max_distance(ProtocolParams(SourceParams.from_variance(20.0), SchemeFamily("bsqc", 1)))
    info = catalysis._exact_moments.cache_info()
    assert info.hits > 0
    assert info.currsize <= info.maxsize
