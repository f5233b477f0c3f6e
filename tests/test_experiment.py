import hashlib
import io
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

import mcplab.experiment
import mcplab.recolor
from mcplab import (
    CheckFlags,
    ColorSpec,
    ExperimentConfig,
    SampleParams,
    achieve_profile,
    build_graph,
    color_neighborhood,
    emit,
    run_trial,
    sample_graph,
    summarize,
    sweep,
)
from mcplab.audit import isolated_color_vertices
from mcplab.errors import BadProfileSumError, NoPerfectMatchingError, ValidationError
from mcplab.matching import monochromatic_perfect_matching
from mcplab.oracle import enumerate_mcp
from mcplab.experiment import (
    _monochromatic_start,
    CSV_HEADER,
    config_from_mapping,
    parse_checks,
    parse_config_text,
    parse_omega,
    parse_suite,
    profile_suite,
    record_rows,
    rarest_color,
)
from mcplab.rng import derive_seed


def small_config(**overrides):
    base = dict(
        n=40,
        colors=ColorSpec.uniform(2),
        omega_grid=(4.0,),
        trials=2,
        base_seed=99,
        suite_kind="corners",
        checks=CheckFlags(per_color_pm=True, walk=True, isolated=True, mcp_exact=False),
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            small_config(trials=0)

    def test_empty_explicit_suite_rejected(self):
        with pytest.raises(ValidationError):
            small_config(suite_kind="explicit", suite_profiles=())

    @pytest.mark.parametrize(
        "prof, error, message",
        [
            ((1, 2), BadProfileSumError, "sums to 3"),
            ((-1, 41), ValidationError, "negative"),
            ((10, 10, 20), BadProfileSumError, "3 entries"),
            ((20.5, 19.5), ValidationError, "must be integers"),
        ],
        ids=["wrong_sum", "negative_count", "wrong_length", "fractional_count"],
    )
    def test_bad_explicit_profile_rejected(self, prof, error, message):
        # The config's profile check is validate_profile_for's, wording included.
        with pytest.raises(error, match=message):
            small_config(suite_kind="explicit", suite_profiles=(prof,))

    def test_explicit_profiles_stored_checked(self):
        cfg = small_config(
            n=4, suite_kind="explicit", suite_profiles=([1, 3], (np.int64(2), np.int64(2)))
        )
        assert cfg.suite_profiles == ((1, 3), (2, 2))
        assert all(type(c) is int for prof in cfg.suite_profiles for c in prof)

    def test_random_needs_count(self):
        with pytest.raises(ValidationError):
            small_config(suite_kind="random", suite_count=0)

    def test_mcp_exact_needs_small_n(self):
        for n, q in ((50, 2), (10, 5)):  # above DP_LIMIT, above Q_LIMIT
            with pytest.raises(ValidationError):
                small_config(n=n, colors=ColorSpec.uniform(q), checks=CheckFlags(mcp_exact=True))

    def test_nonfinite_omega_rejected(self):
        with pytest.raises(ValidationError):
            small_config(omega_grid=(float("inf"),))

    def test_p_clamped_below_zero(self):
        cfg = small_config(omega_grid=(-100.0,))
        assert cfg.grid_p(0) == 0.0

    def test_derived_seed_formula(self):
        cfg = small_config()
        assert cfg.trial_seed(0, 1) == derive_seed(99, 0, 1)


class TestOmegaParsing:
    def test_llog_multiples(self):
        llog = math.log(math.log(1000))
        assert parse_omega("3*llog", 1000) == pytest.approx(3 * llog)
        assert parse_omega("-3*llog", 1000) == pytest.approx(-3 * llog)
        assert parse_omega("llog", 1000) == pytest.approx(llog)
        assert parse_omega("-llog", 1000) == pytest.approx(-llog)
        assert parse_omega("2llog", 1000) == pytest.approx(2 * llog)

    def test_plain_number(self):
        assert parse_omega("4.5", 1000) == 4.5

    def test_suite_spec(self):
        assert parse_suite("corners") == ("corners", 0, ())
        assert parse_suite("random:7") == ("random", 7, ())
        assert parse_suite("explicit:3,1;2,2") == ("explicit", 0, ((3, 1), (2, 2)))
        with pytest.raises(ValidationError):
            parse_suite("bogus")

    def test_checks_spec(self):
        flags = parse_checks("per_color_pm,walk")
        assert flags.per_color_pm and flags.walk
        assert not flags.isolated and not flags.mcp_exact
        with pytest.raises(ValidationError):
            parse_checks("nope")


class TestConfigFile:
    TEXT = """
# sweep config
n = 30
alpha = 0.5,0.5
omega_grid = -llog, 2*llog
trials = 3
base_seed = 7
profile_suite = random:2
checks = per_color_pm,walk
workers = 1
"""

    def test_parse_and_build(self):
        raw = parse_config_text(self.TEXT)
        cfg = config_from_mapping(raw)
        assert cfg.n == 30 and cfg.trials == 3
        assert len(cfg.omega_grid) == 2
        assert cfg.suite_kind == "random" and cfg.suite_count == 2
        assert cfg.checks.walk and not cfg.checks.isolated

    def test_bad_line(self):
        with pytest.raises(ValidationError):
            parse_config_text("n 30\n")

    def test_missing_key(self):
        with pytest.raises(ValidationError):
            config_from_mapping({"alpha": "0.5,0.5"})

    def test_q_mismatch(self):
        # q is len(alpha), so a q key is unknown rather than a second source.
        with pytest.raises(ValidationError, match="unknown config keys"):
            config_from_mapping({"n": "10", "alpha": "0.5,0.5", "q": "3"})

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("trails = 50\n", r"unknown config keys \['trails'\]"),
            ("trials = 2\ntrials = 3\n", "config line 4: repeated key 'trials'"),
        ],
        ids=["unknown_key", "repeated_key"],
    )
    def test_bad_key_rejected(self, extra, message):
        # A misspelt or repeated key must not silently change the sweep.
        with pytest.raises(ValidationError, match=message):
            config_from_mapping(parse_config_text("n = 30\nalpha = 0.5,0.5\n" + extra))


class TestSuite:
    def test_corners_always_included(self):
        cfg = small_config(suite_kind="random", suite_count=3)
        suite = profile_suite(cfg, trial_seed=5)
        n, q = cfg.n, cfg.colors.q
        corners = {tuple(n if i == j else 0 for i in range(q)) for j in range(q)}
        assert corners <= set(suite)
        assert len(suite) >= q + 1  # dedup may drop colliding random picks

    def test_random_profiles_sum_to_n(self):
        cfg = small_config(suite_kind="random", suite_count=5)
        for prof in profile_suite(cfg, trial_seed=11):
            assert sum(prof) == cfg.n

    def test_deterministic_per_seed(self):
        cfg = small_config(suite_kind="random", suite_count=5)
        assert profile_suite(cfg, 3) == profile_suite(cfg, 3)
        assert profile_suite(cfg, 3) != profile_suite(cfg, 4)

    @pytest.mark.parametrize("n", [2, 5, 30, 1000])
    def test_one_color_random_suite_is_the_corner(self, n):
        # With q - 1 = 0 bars, stars-and-bars yields (n,) and draws nothing.
        cfg = small_config(n=n, colors=ColorSpec.uniform(1), suite_kind="random", suite_count=3)
        assert profile_suite(cfg, trial_seed=7) == ((n,),)

    def test_rarest_color(self):
        assert rarest_color(ColorSpec(3, (0.5, 0.25, 0.25))) == 2


class TestRunTrial:
    def test_record_shape(self):
        cfg = small_config()
        rec = run_trial(cfg, 0, 0)
        assert rec.omega == 4.0
        assert rec.pm_success is not None and len(rec.pm_success) == 2
        assert rec.isolated_counts is not None
        assert rec.walks is not None and len(rec.walks) >= 2
        assert rec.derived_seed == cfg.trial_seed(0, 0)

    def test_deterministic_rows(self):
        cfg = small_config()
        r1 = run_trial(cfg, 0, 1)
        r2 = run_trial(cfg, 0, 1)
        assert record_rows(r1, cfg) == record_rows(r2, cfg)

    def test_mcp_exact_record(self):
        cfg = small_config(
            n=6,
            omega_grid=(6.0,),
            checks=CheckFlags(per_color_pm=True, walk=True, isolated=True, mcp_exact=True),
        )
        rec = run_trial(cfg, 0, 0)
        assert rec.mcp_profiles is not None
        assert rec.mcp_walk_agreement is True  # soundness of successful walks

    def test_mcp_exact_without_walk(self):
        cfg = small_config(
            n=6, omega_grid=(6.0,), checks=CheckFlags(walk=False, mcp_exact=True)
        )
        rec = run_trial(cfg, 0, 0)
        assert rec.walks is None
        g = sample_graph(SampleParams(cfg.n, rec.p, cfg.colors, rec.derived_seed))
        assert rec.mcp_profiles == tuple(sorted(enumerate_mcp(g)))
        assert rec.mcp_walk_agreement is True  # no walk to disagree with
        (row,) = [r for r in record_rows(rec, cfg) if r["check"] == "mcp_exact"]
        assert (row["success"], row["steps"]) == (1, len(rec.mcp_profiles))

    def test_one_matching_per_color(self, monkeypatch):
        # A color with an isolated vertex is decided without Hopcroft-Karp;
        # every other color runs it once, and the walks reuse that result.
        calls = []

        def counting(g, color):
            calls.append(color)
            return monochromatic_perfect_matching(g, color)

        monkeypatch.setattr(mcplab.experiment, "monochromatic_perfect_matching", counting)
        monkeypatch.setattr(mcplab.recolor, "monochromatic_perfect_matching", counting)
        for omega, some_fail in ((-3.0, True), (4.0, False)):
            calls.clear()
            cfg = small_config(omega_grid=(omega,), suite_kind="random", suite_count=3)
            rec = run_trial(cfg, 0, 0)
            assert (False in rec.pm_success) is some_fail
            assert len(calls) == len(set(calls))
            for color, (a_count, b_count) in enumerate(rec.isolated_counts, 1):
                assert calls.count(color) == (0 if a_count + b_count else 1)

    def test_clamped_p_runs_edgeless(self):
        cfg = small_config(omega_grid=(-50.0,))
        rec = run_trial(cfg, 0, 0)
        assert rec.p == 0.0
        assert rec.pm_success == (False, False)
        assert all(not w.success for w in rec.walks)
        assert all(c == (cfg.n, cfg.n) for c in rec.isolated_counts)


class TestIsolatedShortcut:
    """An isolated vertex decides a color before Hopcroft-Karp would."""

    def test_agrees_with_hopcroft_karp(self):
        graphs = 0
        shortcuts = Counter()
        for n, q in product((8, 20, 40), (2, 3)):
            cfg = small_config(
                n=n, colors=ColorSpec.uniform(q), omega_grid=(-2.0, -1.0, 0.0, 1.0, 2.0),
                trials=10, base_seed=n * q,
            )
            for rec in sweep(cfg):
                g = sample_graph(SampleParams(n, rec.p, cfg.colors, rec.derived_seed))
                for color in range(1, q + 1):
                    try:
                        monochromatic_perfect_matching(g, color)
                        found = True
                    except NoPerfectMatchingError:
                        found = False
                    assert rec.pm_success[color - 1] is found
                    a_side, b_side = isolated_color_vertices(g, color)
                    start = _monochromatic_start(g, color, (a_side, b_side))
                    assert isinstance(start, NoPerfectMatchingError) is not found
                    if not found:
                        assert start.color == color
                        assert len(color_neighborhood(g, start.witness, color)) < len(start.witness)
                        shortcuts["a" if a_side else "b" if b_side else "none"] += 1
                graphs += 1
        assert graphs == 300
        assert shortcuts["a"] and shortcuts["b"]

    def test_only_b_side_isolated(self):
        # Every A-vertex has a color-1 edge, but B-vertex 2 has none.
        g = build_graph(3, 2, [(0, 0, 1), (1, 1, 1), (2, 0, 1), (0, 2, 2), (1, 2, 2), (2, 2, 2)])
        assert isolated_color_vertices(g, 1) == ((), (2,))
        start = _monochromatic_start(g, 1, isolated_color_vertices(g, 1))
        assert isinstance(start, NoPerfectMatchingError)
        assert start.witness == (0, 1, 2)
        assert color_neighborhood(g, start.witness, 1) == (0, 1)
        with pytest.raises(NoPerfectMatchingError):
            monochromatic_perfect_matching(g, 1)
        out = achieve_profile(g, (3, 0), seed=1, start=start)
        assert out.failure.stage == "no_monochromatic_start"


class TestSweepAndEmit:
    def test_records_ordered(self):
        cfg = small_config(omega_grid=(2.0, 5.0), trials=2)
        records = sweep(cfg)
        keys = [(r.grid_index, r.trial_index) for r in records]
        assert keys == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_emit_csv_shape(self):
        # q=1, suite corners (1 profile), 3 checks -> 3 rows per record
        cfg = small_config(
            n=10,
            colors=ColorSpec.uniform(1),
            omega_grid=(5.0,),
            trials=2,
        )
        records = sweep(cfg)
        buf = io.StringIO()
        emit(records, "csv", buf, cfg)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 1 + 2 * 3

    def test_emit_rerun_byte_identical(self):
        cfg = small_config()
        buf1, buf2 = io.StringIO(), io.StringIO()
        emit(sweep(cfg), "csv", buf1, cfg)
        emit(sweep(cfg), "csv", buf2, cfg)
        assert buf1.getvalue() == buf2.getvalue()

    def test_worker_invariance(self):
        cfg1 = small_config(trials=3)
        cfg2 = small_config(trials=3, workers=2)
        buf1, buf2 = io.StringIO(), io.StringIO()
        emit(sweep(cfg1), "csv", buf1, cfg1)
        emit(sweep(cfg2), "csv", buf2, cfg2)
        assert buf1.getvalue() == buf2.getvalue()

    def test_emit_jsonl_mirrors_fields(self):
        import json

        cfg = small_config(trials=1)
        records = sweep(cfg)
        buf = io.StringIO()
        emit(records, "jsonl", buf, cfg)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert rows and set(rows[0]) == set(CSV_HEADER)

    def test_emit_rejects_bad_format(self):
        cfg = small_config(trials=1)
        records = sweep(cfg)
        with pytest.raises(ValidationError):
            emit(records, "xml", io.StringIO(), cfg)

    def test_emit_rejects_empty(self):
        cfg = small_config(trials=1)
        with pytest.raises(ValidationError):
            emit([], "csv", io.StringIO(), cfg)

    def test_single_trial_summary_equals_record(self):
        cfg = small_config(trials=1, omega_grid=(5.0,))
        records = sweep(cfg)
        summary = summarize(records, cfg)
        assert len(summary) == 1
        row = summary[0]
        rec = records[0]
        assert row["trials"] == 1
        assert row["pm_all_colors_frac"] == float(all(rec.pm_success))

    def test_summary_recomputable_from_records(self):
        cfg = small_config(omega_grid=(2.0, 6.0), trials=3)
        records = sweep(cfg)
        summary = summarize(records, cfg)
        for gi, row in enumerate(summary):
            group = [r for r in records if r.grid_index == gi]
            pairs = [w for r in group for w in r.walks]
            assert row["walk_pair_frac"] == sum(w.success for w in pairs) / len(pairs)
            assert row["trials"] == len(group)
            rare = [sum(r.isolated_counts[rarest_color(cfg.colors) - 1]) for r in group]
            assert row["isolated_rarest_frac"] == sum(c > 0 for c in rare) / len(group)
            assert row["isolated_rarest_mean"] == sum(rare) / len(group)

    def test_timings_zeroed_by_default(self):
        cfg = small_config(trials=1)
        records = sweep(cfg)
        rows = record_rows(records[0], cfg)
        assert all(r["ms"] == 0.0 for r in rows)
        rows_t = record_rows(records[0], cfg, include_timings=True)
        assert any(r["ms"] > 0.0 for r in rows_t if r["check"] == "walk")

    @pytest.mark.parametrize(
        "n, omega_grid, trials, suite_count, mcp_exact, want",
        [
            pytest.param(
                60, (-2.0, 3.0), 3, 4, False,
                {
                    "csv": "38636d33802bd9c3ca7f876880b39c605b13b9661ca2e5e6c2dad99ab34fc95b",
                    "jsonl": "c9033725c5db58737e16b1f28c0e0d57651edc7117ecbc3a143f0419df6960ab",
                },
                id="n60",
            ),
            # more than 277 source-color anchors: the anchor draws switch, as
            # random.sample does, from a pool to set-based rejection, so both
            # draw paths are pinned
            pytest.param(
                400, (3.0,), 2, 2, False,
                {
                    "csv": "349421b1664f6d172db79f9fb71ae66d7a1363baff1292cc0f280919becc5be8",
                    "jsonl": "c6376137cb0ce2ecbb905bbe64ce038face2cb4ff90d7b75ed41183123623f4e",
                },
                id="n400",
            ),
            # mcp_exact on: pins the exact oracle's rows (profile count and
            # walk agreement) below and inside the window
            pytest.param(
                14, (-1.0, 0.5), 3, 4, True,
                {
                    "csv": "a1c73067eecbe86986c9fb32e00109ce46d4ab0466cb534ba49d50db49cd7efe",
                    "jsonl": "9896b39d02f3d2c945f90cb39fc0b7ba730a494c7da3ffb4d7550b836fa0449f",
                },
                id="n14_mcp_exact",
            ),
        ],
    )
    def test_golden_digest(self, n, omega_grid, trials, suite_count, mcp_exact, want):
        # Pinned emit bytes for fixed sweeps whose walks take hundreds of
        # steps; a refactor of sampling, matching or the walk must leave them
        # as is.
        cfg = small_config(
            n=n,
            colors=ColorSpec(3, (0.5, 0.25, 0.25)),
            omega_grid=omega_grid,
            trials=trials,
            base_seed=7,
            suite_kind="random",
            suite_count=suite_count,
            checks=CheckFlags(mcp_exact=mcp_exact),
        )
        records = sweep(cfg)
        digests = {}
        for fmt in ("csv", "jsonl"):
            buf = io.StringIO()
            emit(records, fmt, buf, cfg)
            digests[fmt] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digests == want
