"""Period detection: exact results, goldens, budget/resume, callbacks."""
import dataclasses
import random
import tracemalloc
from array import array

import pytest

from _table_oracle import (DictTable, PackedTable, fingerprint_period,
                           packed_entries)
from rectfree import (BudgetExhaustedError, Cadence, CorruptCheckpointError,
                      InvalidParameterError, PeriodResult, defining_matrix,
                      detect_period, minimal_fold_multiplier, new_generator)
from rectfree import period
from rectfree.period import (DEFAULT_WINDOW, MAX_ANCHORS, SPACING,
                             ResumeState, _Detector, _minimize_p,
                             _minimize_pp, _pp_from_ring, _Ring, _window,
                             anchor_state)

EXPECTED = {
    1: dict(pp=0, p=3, b_breadth=1, l_max=3, case1=True, rows_examined=3),
    2: dict(pp=0, p=7, b_breadth=4, l_max=7, case1=True, rows_examined=7),
    3: dict(pp=48, p=16, b_breadth=4, l_max=9, case1=False,
            rows_examined=80),
    4: dict(pp=0, p=21, b_breadth=16, l_max=21, case1=True,
            rows_examined=21),
    16: dict(pp=0, p=273, b_breadth=256, l_max=273, case1=True,
             rows_examined=273),
}


class TestExactResults:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_orders(self, n):
        res = detect_period(n, 10_000)
        for field, value in EXPECTED[n].items():
            assert getattr(res, field) == value, (n, field)
        assert res.n == n

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_restart_shortcut_reads_the_ring(self, n, monkeypatch):
        # Rows 1 .. p come from the ring, not from a second generator.
        calls = []
        monkeypatch.setattr(period, "new_generator",
                            lambda n: calls.append(n) or new_generator(n))
        res = detect_period(n, 10_000)
        assert calls == [n]
        assert res == PeriodResult(n=n, **EXPECTED[n])

    @pytest.mark.parametrize("n, rows", [(2, 5), (4, 15), (16, 200)])
    def test_restart_shortcut_without_row_1_regenerates(self, n, rows,
                                                        monkeypatch):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(n, rows)
        resume = info.value.resume
        snap = resume.detector
        assert snap.ring_first == 1
        cut = 2  # the ring now starts at row 3
        trimmed = dataclasses.replace(
            snap, ring_first=snap.ring_first + cut,
            ring=snap.ring[cut * (n + 1):])
        calls = []
        monkeypatch.setattr(period, "new_generator",
                            lambda n: calls.append(n) or new_generator(n))
        res = detect_period(n, 10_000, resume=ResumeState(
            resume.generator, trimmed))
        assert calls == [n]  # the fallback's fresh cursor
        assert res == detect_period(n, 10_000)

    def test_case1_rows_examined_is_quadratic(self):
        # the empty-frontier shortcut fires right after row n^2 + n + 1
        for n in (1, 2, 4):
            assert detect_period(n, 10_000).rows_examined == n * n + n + 1


class TestDefiningMatrix:
    def test_recurrence_anchors_for_n3(self):
        gen = new_generator(3)
        dms = {}
        for _ in range(67):
            gen.next_row()
            if gen.rows_emitted in (48, 51, 64, 67):
                dms[gen.rows_emitted] = defining_matrix(gen)
        assert dms[51] == dms[67]
        assert dms[48] != dms[64]
        assert (dms[51].d, dms[51].b) == (6, 6)
        assert dms[51].bits == ((0,), (1,), (2,),
                                (0, 1, 3), (0, 2, 4), (1, 4, 5))
        assert (dms[51].anchor_k, dms[51].anchor_l) == (52, 49)
        assert (dms[67].anchor_k, dms[67].anchor_l) == (68, 65)

    def test_empty_after_case1_order_completes(self):
        gen = new_generator(2)
        for _ in range(7):
            gen.next_row()
        assert defining_matrix(gen).is_empty

    def test_requires_at_least_one_row(self):
        with pytest.raises(InvalidParameterError):
            defining_matrix(new_generator(2))


class TestBudgetAndResume:
    def test_budget_error_carries_reusable_resume(self):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 40)
        exc = info.value
        assert exc.rows_examined == 40
        assert exc.resume is not None
        first = detect_period(3, 10_000, resume=exc.resume)
        second = detect_period(3, 10_000, resume=exc.resume)
        assert (first.pp, first.p) == (48, 16)
        assert first == second  # resume state not consumed by use

    def test_budget_counts_continue_across_resume(self):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 40)
        with pytest.raises(BudgetExhaustedError) as info2:
            detect_period(3, 70, resume=info.value.resume)
        assert info2.value.rows_examined == 70

    @pytest.mark.parametrize("window", [16, 20, 24, 32, 64, DEFAULT_WINDOW])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sliced_runs_equal_unsliced(self, n, window):
        # Steps from 1 row up cut the run at every row, between each
        # anchor and its return among them.
        whole = detect_period(n, 1000, window=window)
        for step in range(1, 120):
            resume, sliced = None, None
            for budget in range(step, 1000 + step, step):
                try:
                    sliced = detect_period(n, min(budget, 1000),
                                           window=window, resume=resume)
                    break
                except BudgetExhaustedError as exc:
                    resume = exc.resume
            assert sliced == whole, step

    def test_resume_rejects_other_order(self):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 40)
        with pytest.raises(InvalidParameterError):
            detect_period(2, 100, resume=info.value.resume)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_rows_validation(self, bad):
        with pytest.raises(InvalidParameterError):
            detect_period(1, bad)


class TestInLoopCheckpoints:
    def test_checkpoints_follow_the_row_cadence_and_resume(self):
        states = []
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 70, window=16, cadence=Cadence(
                checkpoint_every_rows=20, save=states.append))
        assert [s.generator.rows_emitted for s in states] == [20, 40, 60]
        # Each state owns its generator, and each resumes like the
        # state at the end of a budget-limited run.
        final = info.value.resume
        assert all(s.generator is not final.generator for s in states)
        whole = detect_period(3, 1000, window=16)
        for state in states:
            with pytest.raises(BudgetExhaustedError) as cut:
                detect_period(3, state.generator.rows_emitted, window=16)
            assert cut.value.resume.detector == state.detector
            assert detect_period(3, 1000, window=16, resume=state) == whole

    def test_checkpointed_run_finds_the_same_period(self):
        states = []
        result = detect_period(3, 1000, window=16, cadence=Cadence(
            checkpoint_every_rows=7, save=states.append))
        assert result == detect_period(3, 1000, window=16)
        # Row 80 confirms the period before its checkpoint falls due.
        assert [s.generator.rows_emitted for s in states] == \
            list(range(7, 80, 7))

    @pytest.mark.parametrize("kwargs", [
        {"checkpoint_every_rows": 0}, {"checkpoint_every_rows": -1},
        {"checkpoint_every_seconds": 0.0},
        {"checkpoint_every_seconds": float("nan")}])
    def test_cadence_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            Cadence(save=lambda state: None, **kwargs)


class TestWindow:
    def test_small_window_still_finds_n3(self):
        res = detect_period(3, 10_000, window=32)
        assert (res.pp, res.p) == (48, 16)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_window_below_p_still_finds_the_period(self, n):
        # The window sets the ring alone: every w in 4 .. p - 1 confirms
        # the true period, now read from the anchor's state.
        want = {k: EXPECTED[n][k] for k in ("pp", "p", "b_breadth",
                                            "l_max", "case1")}
        offsets = list(detect_period(n, 10_000).offsets)
        for w in range(4, want["p"]):
            res = detect_period(n, 10_000, window=w)
            assert dataclasses.asdict(res) | {"rows_examined": 0} == \
                want | {"n": n, "rows_examined": 0, "offsets": res.offsets}
            assert list(res.offsets) == offsets, w

    def test_rows_the_ring_lacks_come_from_the_anchor(self, monkeypatch):
        # A ring cut to start at row 66: the return at row 80 to the
        # anchor at row 64 regenerates rows 65 .. 80 from the anchor's
        # state, as for a period longer than the ring, and pp from row 1.
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 70, window=16)
        resume = info.value.resume
        trimmed = dataclasses.replace(resume.detector, ring_first=66,
                                      ring=resume.detector.ring[65 * 4:])
        calls = []
        monkeypatch.setattr(period, "anchor_state", lambda n, anchor:
                            calls.append(anchor[0]) or
                            anchor_state(n, anchor))
        res = detect_period(3, 10_000, resume=ResumeState(
            resume.generator, trimmed))
        fresh = detect_period(3, 10_000)
        assert res == fresh and calls == [64]
        assert list(res.offsets) == list(fresh.offsets)

    def test_window_validation(self):
        with pytest.raises(InvalidParameterError):
            detect_period(1, 100, window=3)

    def test_resume_refuses_another_window(self):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 60, window=16)
        rows = []
        with pytest.raises(InvalidParameterError,
                           match=r"^--window 4 differs from the window 16 "):
            detect_period(3, 1000, window=4, resume=info.value.resume,
                          on_row=lambda k, ones: rows.append(k))
        assert rows == []

    @pytest.mark.parametrize("window", [None, 16])
    def test_resume_keeps_its_window(self, window):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 60, window=16)
        res = detect_period(3, 1000, window=window, resume=info.value.resume)
        assert res == detect_period(3, 1000, window=16)
        assert (res.pp, res.p, res.rows_examined) == (48, 16, 80)

    def test_fresh_run_defaults_to_default_window(self):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 60, window=None)
        assert info.value.resume.detector.window == DEFAULT_WINDOW


def brute_force_period(n: int, rows: int) -> tuple[int, int]:
    """The least p <= rows / 4 with ones(row i + p) = ones(row i) + p
    over the second half of the first ``rows`` rows, and the last row pp
    where that shift fails."""
    encs = _encodings(n, rows)
    for p in range(1, rows // 4 + 1):
        fails = [i for i in range(1, rows - p + 1) if encs[i] != encs[i + p]]
        if not fails or fails[-1] < rows // 2:
            return max(fails, default=0), p
    raise AssertionError("no period within the prefix")


class TestAgainstOracles:
    """The anchors against detectors that share none of their code."""

    @pytest.mark.parametrize("n, rows", [(1, 50), (2, 50), (3, 400),
                                         (4, 200), (16, 1200)])
    def test_brute_force_oracle(self, n, rows):
        res = detect_period(n, 10_000)
        assert (res.pp, res.p) == brute_force_period(n, rows)
        encs = _encodings(n, res.pp + res.p)
        assert list(res.offsets) == [o for enc in encs[res.pp + 1:]
                                     for o in enc]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    @pytest.mark.parametrize("window", [16, 64, DEFAULT_WINDOW])
    def test_the_fingerprint_oracle_agrees(self, n, window):
        res = detect_period(n, 10_000, window=window)
        assert fingerprint_period(n, 10_000, window) == (res.pp, res.p)

    @pytest.mark.parametrize("n, p, rows", [(3, 16, 70), (4, 21, 20),
                                            (5, 31, 3000), (6, 64, 3000)])
    def test_an_anchor_state_gives_the_next_rows(self, n, p, rows):
        # Every anchor of a run, rebuilt with from_snapshot, makes the
        # next 2p rows (64 at n = 6, whose period is unknown).
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(n, rows)
        anchors = info.value.resume.detector.anchors
        assert anchors
        encs = _encodings(n, rows + 2 * p)
        for anchor in anchors:
            a = anchor[0]
            gen = anchor_state(n, anchor)
            made = [gen._advance() for _ in range(2 * p)]
            assert [(k, tuple([j - k for j in ones])) for k, ones in made] \
                == list(zip(range(a + 1, a + 2 * p + 1),
                            encs[a + 1:a + 2 * p + 1])), a


class TestAnchors:
    @pytest.mark.parametrize("rows", [15, 16, 17, 5000, 40_000])
    def test_anchors_sit_on_the_grid_of_the_row_count(self, rows):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(6, rows)
        snap = info.value.resume.detector
        spacing = SPACING
        while rows // spacing > MAX_ANCHORS:
            spacing *= 2
        assert snap.spacing == spacing
        assert [a for a, _, _ in snap.anchors] == \
            list(range(spacing, rows + 1, spacing))

    def test_a_full_set_thins_and_still_finds_the_period(self, monkeypatch):
        # Two anchors at most: the spacing doubles to 32 at row 48, and
        # the anchor at row 64, past pp = 48, still returns at row 80.
        monkeypatch.setattr(period, "MAX_ANCHORS", 2)
        snaps = []
        res = detect_period(3, 10_000, cadence=Cadence(
            checkpoint_every_rows=1, save=lambda s: snaps.append(
                s.detector)))
        assert (res.pp, res.p) == (48, 16)
        assert all(len(s.anchors) <= 2 for s in snaps)
        assert [(s.spacing, [a for a, _, _ in s.anchors])
                for s in snaps[31::16]] == [
            (16, [16, 32]), (32, [32]), (32, [32, 64])]
        assert res.rows_examined == 80

    def test_resume_refuses_more_anchors_than_the_cap(self):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 70)
        resume = info.value.resume
        too_many = dataclasses.replace(
            resume.detector,
            anchors=resume.detector.anchors[:1] * (MAX_ANCHORS + 1))
        with pytest.raises(CorruptCheckpointError, match=r"^1025 anchors"):
            detect_period(3, 1000, resume=ResumeState(resume.generator,
                                                      too_many))

    def test_thinning_keeps_each_anchor_with_its_own_state(
            self, monkeypatch):
        # A full set of two at rows 16 and 32: row 64 lies on the doubled
        # spacing, so it joins row 32, each with the window it came with.
        monkeypatch.setattr(period, "MAX_ANCHORS", 2)
        det = _Detector(16, new_generator(3).params)
        windows = {a: array("b", [a, a + 1, a + 2, a + 3]) for a in
                   (16, 32, 64)}
        for a, window in windows.items():
            det.place(a, a // 16, window)
        assert det.spacing == 32
        assert det.anchors == {32: (2, windows[32]), 64: (4, windows[64])}
        assert det.keys == {((32, 33, 34, 35), 2, 1): [32],
                            ((64, 65, 66, 67), 4, 1): [64]}

    def test_a_shared_key_keeps_both_anchors(self):
        det = _Detector(16, new_generator(3).params)
        one, two = array("b", [0, 1, 2, 3] * 2), array("b", [5, 6, 7, 8,
                                                            0, 1, 2, 3])
        det.place(16, 3, one)
        det.place(32, 3, two)
        assert det.keys == {((0, 1, 2, 3), 3, 2): [16, 32]}


class TestCallbacks:
    def test_on_row_sees_every_examined_row(self):
        seen = []
        detect_period(2, 100, on_row=lambda k, ones: seen.append((k, ones)))
        assert [k for k, _ in seen] == list(range(1, 8))
        assert seen[0] == (1, (1, 2, 3))


class TestFoldMultiplier:
    def test_measured_orders(self):
        assert minimal_fold_multiplier(detect_period(1, 100)) == 2
        assert minimal_fold_multiplier(detect_period(3, 10_000)) == 2

    def test_synthetic_breadth_dominates(self):
        res = PeriodResult(n=1, pp=0, p=3, b_breadth=7, l_max=3,
                           case1=False, rows_examined=0)
        # need floor(3m/2) > 7: m=5 gives floor(7.5)=7, not enough -> m = 6
        assert minimal_fold_multiplier(res) == 6

    def test_synthetic_length_dominates(self):
        res = PeriodResult(n=1, pp=0, p=3, b_breadth=0, l_max=8,
                           case1=False, rows_examined=0)
        # need 3m >= 16  ->  m = 6
        assert minimal_fold_multiplier(res) == 6


def _encodings(n: int, rows: int) -> list[tuple[int, ...]]:
    """Diagonal encodings of rows 1..rows, 1-based (index 0 unused)."""
    gen = new_generator(n)
    encs = [()]
    for _ in range(rows):
        k, ones = gen._advance()
        encs.append(tuple(j - k for j in ones))
    return encs


class TestMinimizeP:
    @pytest.mark.parametrize("n, k0, candidates, p", [
        (3, 55, (16, 32, 48), 16),  # pp = 48: rows from 49 on repeat
        (1, 1, (3, 6, 9), 3),
    ])
    def test_a_multiple_shrinks_to_the_period(self, n, k0, candidates, p):
        ring = _Ring(10 ** 6, n + 1)
        for enc in _encodings(n, 200)[1:]:
            ring.append(list(enc))
        for cand in candidates:
            assert _minimize_p(ring, k0, cand) == p, cand


class TestPreperiodFromRing:
    """pp read from the detector ring against the from-scratch pass."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
    def test_ring_scan_agrees_with_the_fresh_pass(self, n):
        p_true = {3: 16}.get(n, n * n + n + 1)
        encs = _encodings(n, 4 * p_true + 120)
        cases = [(k0, p) for p in (p_true, 5, 2 * p_true)
                 for k0 in (1, 2, 30, 49, 60, 2 * p_true + 3)
                 if k0 - 1 + p < len(encs)]
        for k0, p in cases:
            want = _minimize_pp(n, k0, p)
            for first in sorted({1, 2, max(1, want - 1), max(1, want),
                                 want + 1, k0}):
                if first > k0:
                    continue
                ring = _Ring(10 ** 6, n + 1, first)
                for enc in encs[first:]:
                    ring.append(list(enc))
                got = _pp_from_ring(ring, k0, p)
                if first == 1 or first <= want:
                    assert got == want, (k0, p, first)
                else:
                    assert got is None, (k0, p, first)

    @pytest.mark.parametrize("window", [16, 17, 20, 31, 64, 1000,
                                        DEFAULT_WINDOW])
    def test_detection_takes_pp_from_the_ring(self, window, monkeypatch):
        calls = []
        monkeypatch.setattr(period, "_minimize_pp",
                            lambda *a: calls.append(a) or _minimize_pp(*a))
        res = detect_period(3, 10_000, window=window)
        assert (res.pp, res.p, res.rows_examined) == (48, 16, 80)
        assert calls == []

    def test_a_trimmed_ring_falls_back_to_the_fresh_pass(self, monkeypatch):
        # A ring cut to start at row 55, past the last mismatch at row
        # 48: the return at row 80 to the anchor at row 64 cannot show
        # pp, which comes from a fresh cursor.
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 70, window=16)
        resume = info.value.resume
        snap = resume.detector
        assert snap.ring_first == 1
        trimmed = dataclasses.replace(snap, ring_first=55,
                                      ring=snap.ring[54 * 4:])
        calls = []
        monkeypatch.setattr(period, "_minimize_pp",
                            lambda *a: calls.append(a) or _minimize_pp(*a))
        res = detect_period(3, 10_000, resume=ResumeState(
            resume.generator, trimmed))
        assert res == detect_period(3, 10_000, window=16)
        assert calls == [(3, 65, 16)]


class TestPackedDetector:
    """The ring keeps its rows in a typed array; anchors are few."""

    def test_order6_detector_holds_at_most_48_bytes_per_ring_row(self):
        # Fed as detect_period feeds its live detector, until the ring
        # holds window + sigma + 1 rows: ring offsets and the anchors.
        # This measures about 10 bytes per row; the fingerprint table it
        # replaced held 40, a dict table with a deque of int keys 87, and
        # a ring of per-row tuples with tuple keys about 370.
        gen = new_generator(6)
        window = 1 << 14
        rows = window + gen.params.sigma + 1
        feed = []  # generated untraced: only the detector is measured
        for _ in range(rows):
            k, ones = gen._advance()
            feed.append((k, ones, k + 1 - gen.frontier_l,
                         _window(gen._live) if k % SPACING == 0 else None))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            det = _Detector(window, gen.params)
            for k, ones, lag, window_k in feed:
                det.ring.append([j - k for j in ones])
                if window_k is not None and k % det.spacing == 0:
                    det.place(k, lag, window_k)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert det.ring.first == 1 and det.ring.covers(rows)
        assert len(det.anchors) == rows // det.spacing <= MAX_ANCHORS
        assert held <= 48 * rows, held / rows

    def test_anchor_memory_at_the_cap(self):
        # MAX_ANCHORS order-6 anchors, as the detector holds them after
        # a long run: about 32 live rows each, 660 bytes with the keys
        # and dict entries, 0.66 MiB in all.
        gen = new_generator(6)
        stored = []
        while len(stored) < MAX_ANCHORS:
            k, _ = gen._advance()
            if k % SPACING == 0:
                stored.append((k, k + 1 - gen.frontier_l,
                               _window(gen._live)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            det = _Detector(4, gen.params)
            for k, lag, window in stored:
                det.place(k, lag, array("b", window))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(det.anchors) == MAX_ANCHORS
        assert held < 1 << 20, held / MAX_ANCHORS

    def test_widening_keeps_every_row(self):
        ring = _Ring(100, 3)
        rows = [[-1, 0, 1], [-128, 5, 127],
                [3, 200, -7],            # offsets need 2 bytes
                [0, 1, 2],
                [-40_000, 0, 9],         # 4 bytes
                [1, 2, 3],
                [1 << 40, 0, 0]]         # 8 bytes
        widths = [1, 1, 2, 2, 4, 4, 8]
        for t, (offs, want) in enumerate(zip(rows, widths)):
            ring.append(offs)
            assert ring.offs.itemsize == want, t
            assert ring.offs.tolist() == [o for r in rows[:t + 1]
                                          for o in r]
        assert ring.rows(4, 6).tolist() == [0, 1, 2, -40_000, 0, 9]
        with pytest.raises(OverflowError):
            ring.append([1 << 63, 0, 0])
        assert len(ring.offs) == 21

    def test_trimming_keeps_the_newest_rows(self):
        ring = _Ring(4, 2)
        for i in range(1, 8):
            ring.append([i, -i])
        assert ring.first == 1  # only trim() cuts
        ring.trim()
        assert ring.first == 4
        assert ring.offs.tolist() == [4, -4, 5, -5, 6, -6, 7, -7]
        ring.trim()
        assert ring.first == 4
        for i in range(8, 20):
            ring.append([i, -i])
        ring.trim()
        assert ring.first == 16 and ring.covers(16) and ring.covers(19)
        assert not ring.covers(15) and not ring.covers(20)
        assert ring.rows(16, 17).tolist() == [16, -16]


def feed_both(window, keys, first=2):
    """Record ``keys`` (poly, live, lag) as states first, first + 1, ...
    in a packed table and in the dict oracle; every return and, after
    every record, the whole table must agree."""
    packed, oracle = PackedTable(window), DictTable(window)
    for k, key in enumerate(keys, first):
        assert packed.record(k, *key) == oracle.record(k, *key), k
        assert packed_entries(packed, k) == (oracle.table, oracle.ages), k
    return oracle.table


class TestPackedTable:
    """The fingerprint oracle's packed table answers as the dict and
    deque it replaced."""

    # Homes 0 and 1, and 7, 15 and 4095: the last slot of 8, of 16 and of
    # every table up to 4096 slots.  Each low part comes with several
    # high parts: home collisions and probe runs that wrap.
    POLYS = [low | high << 12 for low in (0, 1, 7, 15, 4095)
             for high in (0, 1, 5)]
    TAGS = [(0, 0), (1, 0), (0, 1), (3, 5), (2, -1)]  # (live, lag)

    @pytest.mark.parametrize("window", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_keys_agree_with_the_dict_table(self, window, seed):
        rng = random.Random(seed)
        polys = rng.sample(self.POLYS, rng.randint(2, len(self.POLYS)))
        tags = self.TAGS[:rng.randint(1, len(self.TAGS))]
        keys = [(rng.choice(polys), *rng.choice(tags)) for _ in range(400)]
        feed_both(window, keys, first=rng.randint(1, 1 << 40))

    @pytest.mark.parametrize("window", [4, 8, 9])
    def test_a_key_repeating_after_exactly_window_states_hits(self, window):
        keys = [(7 | i << 12, 1, 0) for i in range(window)] * 5
        assert len(feed_both(window, keys)) == window

    def test_one_home_slot_for_every_key(self):
        # Every key starts its probe at the last slot of 8, 16 and 32
        # (the table of window 8): the probe run wraps, and deletions
        # shift it back past the end.
        keys = [(31 | 1 << 6 + i % 13, 1, i % 3) for i in range(300)]
        feed_both(8, keys)

    def test_slots_double_and_rehash_as_entries_arrive(self):
        rng = random.Random(5)
        keys = [(rng.randrange(1 << 61), rng.randrange(1 << 20),
                 rng.randrange(-1 << 20, 1 << 20)) for _ in range(600)]
        sizes = []
        packed, oracle = PackedTable(100), DictTable(100)
        for k, key in enumerate(keys, 2):
            assert packed.record(k, *key) == oracle.record(k, *key)
            sizes.append(len(packed.slots))
        assert packed_entries(packed, k) == (oracle.table, oracle.ages)
        assert sorted(set(sizes)) == [8, 16, 32, 64, 128, 256, 512]
        assert len(packed.polys) == len(packed.tags) == 101
        assert len(oracle.table) == 100


class TestNoUpFrontCost:
    """A detector allocates as rows arrive, not by its window."""

    @pytest.mark.parametrize("n, rows, window", [
        (3, 200, 1 << 40),
        (3, 10_000, DEFAULT_WINDOW),
    ])
    def test_detect_period_allocates_under_one_mib(self, n, rows, window):
        tracemalloc.start()
        try:
            try:
                detect_period(n, rows, window=window)
            except BudgetExhaustedError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
