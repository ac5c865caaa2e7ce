"""Every drawn input to the entry points works or raises a typed error.

Property 1: each call returns, or raises a class defined in cvqc_lab, and
a refused call leaves its rng untouched.  run_protocol is also held to
properties 2 (its Stats are the per-trial route's) and 3 (the same seed
gives the same Stats).
The partition and qsim entry points are drawn as follows; the protocol,
effverify, jordan and CLI builders and the effverify sessions at the end
of the file draw each argument from valid values and junk.  Every
sampler is also drawn with rngs that are no numpy Generator, the operator
builders with NaN and infinite matrices, and the rate oracles with ints
past what a float holds.
Each drawn call runs on a fresh strategy (cold), then again after a valid
call has warmed the strategy's caches, and must get the same verdict both
times.  Draws start from a valid call and replace its values with ones
equal under == (True for 1, 1.0 for T = 1, numpy scalars) or with bools,
NaN, infinities, str, None, lists, off-grid values and wrong lengths.  Sizes stay
small: gamma0 >= 0.3 and T <= 4 keep tau <= 9.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cvqc_lab import cli, effverify, jordan, protocol
from cvqc_lab.partition import (
    PartitionParams,
    ProverStrategy,
    extract,
    haar_unitary,
    partition_chain,
    random_accept_sets,
    random_strategy,
    random_xz_state,
    run_G,
    run_G_state,
    run_H,
)
from cvqc_lab.qsim import (NonFiniteAmplitude, NotAGenerator, Operator, RegisterLayout,
                           StateVector, measure)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)

JUNK = (None, True, False, 0, -1, 2.5, 0.3, 1.5, float("nan"), float("inf"), -float("inf"),
        "a", "", "0", "ab", "101", b"10", [1], ["1", "0"])


def _twins(value):
    """value and the values of other types equal to it under ==."""
    if isinstance(value, str):
        return [value, np.str_(value)]
    out = [value, float(value), np.float64(value)]
    if value == int(value):
        out += [int(value), np.int64(value)]
    return out + [True] * (value == 1) + [False] * (value == 0)


def _near(value):
    return st.one_of(st.sampled_from(_twins(value)), st.sampled_from(JUNK))


def _verdict(call, rng=None):
    """None when call returns, else the class it raised, which must be cvqc_lab's."""
    before = pickle.dumps(rng)  # the stream's state, whatever the rng
    try:
        call()
    except Exception as err:  # the property is about what escapes
        assert type(err).__module__.startswith("cvqc_lab."), repr(err)
        assert pickle.dumps(rng) == before, f"{err!r} after a draw"
        return type(err)
    return None


def _valid_grid(draw):
    gamma0 = draw(st.sampled_from([1.0, 0.5]))
    T = draw(st.sampled_from([1, 2, 4]))
    return gamma0, T, lambda: gamma0 * draw(st.integers(1, T)) / T


@st.composite
def h_calls(draw):
    gamma0, T, gamma = _valid_grid(draw)
    valid = dict(gammas=(gamma(), gamma()), c=draw(st.sampled_from(["00", "01", "10", "11"])),
                 gamma0=gamma0, T=T, mode=draw(st.sampled_from(["ideal", "kernel"])))
    drawn = {k: draw(_near(v)) for k, v in valid.items() if k != "gammas"}
    gammas = [draw(_near(g)) for g in valid["gammas"]]
    drawn["gammas"] = draw(st.sampled_from([tuple(gammas), gammas, gammas[:1], gammas + [gamma0],
                                            gammas[0], None]))
    return valid, drawn


@st.composite
def params_calls(draw):
    gamma0, T, gamma = _valid_grid(draw)
    valid = dict(m=2, i=draw(st.sampled_from([1, 2])), gamma0=gamma0, T=T, gamma=gamma(),
                 mode=draw(st.sampled_from(["ideal", "kernel"])))
    drawn = {k: draw(_near(v)) for k, v in valid.items()}
    drawn["m"] = draw(st.one_of(st.just(drawn["m"]), st.sampled_from([1, 3])))
    return valid, drawn, draw(st.one_of(st.integers(1, 4), st.sampled_from(JUNK)))


def _strategy():
    rng = np.random.default_rng(7)
    s = random_strategy(rng, m=2, x_width=1, z_width=0)
    return s, random_xz_state(rng, s)


@SETTINGS
@given(h_calls())
def test_H_and_chain_refuse_cold_and_warm_alike(args):
    valid, drawn = args
    s, psi = _strategy()
    rng = np.random.default_rng(0)

    def calls(kw):
        args = (s, kw["gammas"], kw["c"], psi)
        opts = dict(gamma0=kw["gamma0"], T=kw["T"], mode=kw["mode"])
        return [lambda: run_H(*args, rng, **opts), lambda: partition_chain(*args, **opts)]

    cold = [_verdict(call, rng) for call in calls(drawn)]
    assert [_verdict(call, rng) for call in calls(valid)] == [None, None]
    assert [_verdict(call, rng) for call in calls(drawn)] == cold


@SETTINGS
@given(params_calls())
def test_params_entry_points_refuse_cold_and_warm_alike(args):
    valid, drawn, n_rounds = args
    s, psi = _strategy()
    full = StateVector(s.layout(), np.eye(s.dim)[0])
    rng = np.random.default_rng(0)

    def calls(kw, n):
        return [lambda: run_G(s, PartitionParams(**kw), psi),
                lambda: run_G_state(s, PartitionParams(**kw), psi),
                lambda: extract(s, PartitionParams(**kw), full, n, rng)]

    cold = [_verdict(call, rng) for call in calls(drawn, n_rounds)]
    assert [_verdict(call, rng) for call in calls(valid, 3)] == [None] * 3
    assert [_verdict(call, rng) for call in calls(drawn, n_rounds)] == cold


SIZES = st.one_of(st.integers(-2, 25),
                  st.sampled_from([2.5, 1.0, True, np.float64(3.9), np.int64(1), "x", None, 10**30]))


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), SIZES), max_size=3))
def test_register_layout_widths(registers):
    _verdict(lambda: RegisterLayout(tuple(registers)))


@SETTINGS
@given(SIZES, SIZES, SIZES)
def test_prover_strategy_sizes(m, x_width, z_width):
    u = Operator.unitary(np.eye(8))
    verdict = _verdict(lambda: ProverStrategy(m, x_width, z_width, u, (frozenset({"0"}),)))
    fits = [isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v == 1
            for v in (m, x_width, z_width)]
    assert (verdict is None) == all(fits)


@SETTINGS
@given(st.sampled_from([1.0, 1e-5, 1e150, 1e153, 1e154, 1e160, 1e200, 1e300]),
       st.sampled_from(["xz", "full"]))
def test_overflowing_norms_are_refused(scale, which):
    # a finite state whose squared norm overflows is NonFiniteAmplitude
    # before any draw, on the walk's and the extractor's first visit alike
    s, psi = _strategy()
    amps = scale * (psi.amps if which == "xz" else np.eye(s.dim)[0])
    state = StateVector(s.xz_layout() if which == "xz" else s.layout(), amps)
    rng = np.random.default_rng(0)
    if which == "xz":
        call = lambda: run_H(s, (0.5, 0.5), "01", state, rng, gamma0=1.0, T=4)
    else:
        call = lambda: extract(s, PartitionParams(2, 1, 1.0, 4, 0.5), state, 3, rng)
    overflows = not math.isfinite(float(np.vdot(amps, amps).real))
    with np.errstate(over="ignore"):
        for _ in range(2):
            assert _verdict(call, rng) is (NonFiniteAmplitude if overflows else None)


# ---------------------------------------------------------------------------
# Builders and effverify sessions

_PROTO = protocol.toy_protocol(4)
PROTOCOLS = st.sampled_from([_PROTO, protocol.parallel_repeat(_PROTO, 2), None, "p", 2,
                             protocol.OracleTable(1, 2)])
ORACLES = st.sampled_from([protocol.OracleTable(1, 2), protocol.OracleTable(1, 1), None, 2, _PROTO])


@SETTINGS
@given(PROTOCOLS, ORACLES, SIZES)
def test_protocol_builders(p, oracle, m):
    _verdict(lambda: protocol.fiat_shamir(p, oracle))
    _verdict(lambda: protocol.parallel_repeat(p, m))


# run_protocol is drawn over every shape and adversary at small sizes (n <=
# 18, m <= 6, trials <= 64), with a trial chunk of 1..64 so that runs cross
# chunk edges.  Property 2: wherever it takes the bulk route, its Stats are
# the per-trial route's at the same seed.  Property 3: the same seed gives
# the same Stats.

_CHEATS = {w: protocol.UnitaryCheat(random_strategy(np.random.default_rng(w), m=1, x_width=w,
                                                    z_width=1))
           for w in (2, 3, 4)}
ADVERSARIES = ["honest", "testonly", "honest-other-shape", "honest-other-width", "cheat-2",
               "cheat-3", "cheat-4", "no-strategy", None]


def _toy(n, shape):
    p = protocol.toy_protocol(n)
    for size in shape:
        p = protocol.parallel_repeat(p, size)
    return p


def _adversary(kind, n, shape):
    p = _toy(n, shape)
    return {"honest": lambda: protocol.Honest(p), "testonly": lambda: protocol.TestOnly(p),
            "honest-other-shape": lambda: protocol.Honest(_toy(n, shape + (2,))),
            "honest-other-width": lambda: protocol.TestOnly(_toy(n % 18 + 1, shape)),
            "cheat-2": lambda: _CHEATS[2], "cheat-3": lambda: _CHEATS[3],
            "cheat-4": lambda: _CHEATS[4]}.get(kind, lambda: kind)()


def _mostly(valid, junk):
    """Draws from junk when a drawn digit is 5, else from valid; hypothesis
    favours 0, so junk stays about one draw in ten."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 5 else valid)


@st.composite
def protocol_runs(draw):
    # n = 1..3 lets the cheats of X width 2..4 match the toy and replay in bulk
    n = draw(st.sampled_from([1, 2, 3, 3, 5, 12, 18]))
    # one level is the shape every route replays in bulk
    depth = draw(st.sampled_from([0, 1, 1, 1, 2, 3]))
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth)
                       .filter(lambda s: math.prod(s) <= 6)))
    kind = draw(_mostly(st.sampled_from(ADVERSARIES[:-2] + ["honest", "testonly"]),
                        st.sampled_from(ADVERSARIES[-2:])))
    hashed = draw(st.sampled_from([False, True, True]))
    # a grinder outside Fiat-Shamir is refused; an oracle of the wrong width
    # too (0 is no width)
    budget = draw(_mostly(st.sampled_from([None, 1, 2, 3, 4] if hashed else [None]),
                          st.sampled_from([None, 2])))
    out_bits = draw(_mostly(st.just(0), st.sampled_from([-1, 1]))) if hashed else None

    def build():
        p = _toy(n, shape)
        adversary = _adversary(kind, n, shape)
        if budget is not None:
            adversary = protocol.FsGrinder(budget, adversary)
        if out_bits is not None:
            p = protocol.fiat_shamir(p, protocol.OracleTable(5, p.m + out_bits))
        return p, adversary

    x = draw(_mostly(st.sampled_from(["yes", "no"]), st.sampled_from(["maybe", None])))
    trials = draw(_mostly(st.integers(1, 64), st.sampled_from([0, -1, True, 2.5, None, np.int64(7)])))
    seed = draw(_mostly(st.integers(0, 2**70),
                        st.sampled_from([None, True, -1, "a", 1.5, [3, 2**40], np.int64(5)])))
    return build, x, trials, seed, draw(st.integers(1, 64))


@SETTINGS
@given(protocol_runs())
def test_run_protocol_routes_agree(args):
    build, x, trials, seed, chunk = args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_TRIAL_CHUNK", chunk)

        def call():
            return protocol.run_protocol(*build(), x, trials, seed)

        if _verdict(call) is None:
            got = call()
            assert got == call()
            assert got == protocol._run_per_trial(*build(), x, trials, seed)


@SETTINGS
@given(st.sampled_from([None, (None,), (frozenset({0}),), (frozenset({"0", None}),), ("0",),
                        frozenset({"0"}), [frozenset({"1"})], (frozenset({"0"}),) * 2, ({"1"},)]))
def test_prover_strategy_accept_sets(accept_sets):
    u = Operator.unitary(np.eye(8))
    verdict = _verdict(lambda: ProverStrategy(1, 1, 1, u, accept_sets))
    well_formed = (isinstance(accept_sets, (tuple, list)) and len(accept_sets) == 1
                   and isinstance(accept_sets[0], (set, frozenset))
                   and all(isinstance(a, str) for a in accept_sets[0]))
    assert (verdict is None) == well_formed


RNGS = st.sampled_from(["generator", None, 0, "rng", "random-state", "bit-generator"])


def _rng(kind):
    return {"generator": np.random.default_rng(0), "random-state": np.random.RandomState(0),
            "bit-generator": np.random.PCG64(0)}.get(kind, kind)


@SETTINGS
@given(RNGS, st.sampled_from([False, True]))
def test_samplers_refuse_what_is_no_generator(kind, controlled):
    s, psi = _strategy()
    full = StateVector(s.layout(), np.eye(s.dim)[0])
    params = PartitionParams(2, 1, 1.0, 4, 0.5)
    calls = [lambda rng: random_strategy(rng, m=1, controlled=controlled),
             lambda rng: haar_unitary(rng, 2),
             lambda rng: random_accept_sets(rng, 2, 1),
             lambda rng: random_xz_state(rng, s),
             lambda rng: extract(s, params, full, 3, rng),
             lambda rng: run_H(s, (0.5, 0.5), "01", psi, rng, gamma0=1.0, T=4),
             lambda rng: jordan.random_projector(rng, 3, 1),
             lambda rng: measure(full, "X1", rng)]
    for call in calls:
        rng = _rng(kind)
        assert _verdict(lambda: call(rng), rng) is (None if kind == "generator" else NotAGenerator)


_P = np.diag([1.0, 0, 0, 0])
MATRICES_4 = st.sampled_from(
    [np.eye(4), _P, haar_unitary(np.random.default_rng(1), 4), 1e300 * np.eye(4)]
    + [np.full((4, 4), v) for v in (np.nan, np.inf, -np.inf)]
    + [np.where(np.eye(4) == 1, v, 0.0) for v in (np.nan, np.inf, -np.inf)]
    + [np.where(_P == 1, v, 0.0) for v in (np.nan, np.inf)])


@SETTINGS
@given(MATRICES_4)
def test_operators_refuse_non_finite_matrices(mat):
    acc = (frozenset({"0"}),)
    with np.errstate(invalid="ignore", over="ignore"):
        verdicts = [_verdict(lambda: Operator.unitary(mat)),
                    _verdict(lambda: Operator.projector(mat)),
                    _verdict(lambda: ProverStrategy(1, 1, 0, Operator.unitary(mat), acc)),
                    _verdict(lambda: jordan.jordan_decompose(mat, _P)),
                    _verdict(lambda: jordan.jordan_decompose(_P, mat))]
    assert _verdict(lambda: ProverStrategy(1, 1, 0, mat, acc)) is not None
    if not np.isfinite(mat).all():
        assert None not in verdicts


HUGE = st.one_of(SIZES, st.sampled_from([2**53, 2**53 + 1, 10**400, -10**400, 10**5000]))


@SETTINGS
@given(HUGE, HUGE)
def test_rate_oracles(m, other):
    for call in (lambda: protocol.testonly_rate_oracle(m),
                 lambda: protocol.grinder_rate_oracle(m, other),
                 lambda: protocol.honest_rate_oracle(other, m)):
        if _verdict(call) is None:
            assert 0.0 <= call() <= 1.0


@SETTINGS
@given(st.sampled_from([b"x" * 64, b"x" * 3, None, "x" * 64, [0] * 64]), SIZES, SIZES,
       st.sampled_from([effverify.toy_inner(4, 2), _PROTO, None, "inner"]))
def test_key_builders(stream, n, m, inner):
    _verdict(lambda: effverify.derive_keys(stream, n, m))
    _verdict(lambda: effverify.key_length(inner))


@SETTINGS
@given(st.sampled_from([effverify.key_machine(4, 2, 512), (("HALT",),), [("HALT",)], (), None,
                        "HALT", 3]),
       st.sampled_from([b"\x07" * 16, b"", None, "s"]),
       st.one_of(SIZES, st.sampled_from([512, 0, None])))
def test_run_machine_arguments(program, inp, budget):
    _verdict(lambda: effverify.run_machine(program, inp, effverify._prg_bytes, budget))


SET_PAIRS = st.one_of(st.sampled_from(["dim_max=4", "dim_max=x", "nope=1", "dim_max", "=", "seed=3",
                                       "pairs=2,3"]),
                      st.sampled_from(JUNK))


@SETTINGS
@given(st.sampled_from(["jordan-demo", "effverify-demo", "nope", None]),
       st.sampled_from([1, None, -1, "1", True]), st.lists(SET_PAIRS, max_size=2))
def test_build_config(command, seed, sets):
    _verdict(lambda: cli.build_config(command, seed=seed, sets=sets))


MATRICES = st.sampled_from([np.eye(2), [[0, 1], [1, 0]], np.eye(3)[:2], [1, 2], np.eye(2)[None],
                            np.full((2, 2), np.nan), np.zeros((0, 0)), "a", None, [["a", 1]]])


@SETTINGS
@given(st.one_of(st.integers(-1, 6), st.sampled_from(JUNK)),
       st.one_of(st.integers(-1, 6), st.sampled_from(JUNK)), MATRICES)
def test_jordan_builders(dim, rank, q):
    _verdict(lambda: jordan.random_projector(np.random.default_rng(0), dim, rank))
    _verdict(lambda: jordan.unitary_eig(q))


@st.composite
def sessions(draw):
    widths = [draw(st.sampled_from([256, 8, 1, 0])) for _ in range(2)]
    shape = (draw(st.sampled_from([4, 12, 17, 0])), draw(st.sampled_from([1, 2, 3, 0])))
    x = draw(st.sampled_from(["yes", "no", "maybe", 1, None]))
    prover = draw(st.sampled_from(["honest", "mismatched-statement", "rejecting-e", "clever", None]))
    seed = draw(st.one_of(st.integers(0, 3), st.sampled_from(JUNK)))
    time_bound = draw(st.one_of(st.sampled_from([256, 4096, 1, 0]), st.sampled_from(JUNK)))
    flow = draw(st.sampled_from([effverify.run_four_round, effverify.run_two_round_fs]))
    return widths, shape, x, prover, seed, time_bound, flow


@SETTINGS
@given(sessions())
def test_effverify_sessions(args):
    widths, shape, x, prover, seed, time_bound, flow = args

    def call():
        suite = effverify.BackendSuite(effverify.StubFhe(), effverify.StubRe(), effverify.StubSnark(),
                                       protocol.OracleTable(1, widths[0]),
                                       protocol.OracleTable(2, widths[1]))
        return flow(suite, effverify.toy_inner(*shape), x, prover, seed, time_bound)

    if _verdict(call) is None:
        _, ses = call()
        assert ses.cost.message_bytes == sum(len(data) for _, data in ses.sent)

