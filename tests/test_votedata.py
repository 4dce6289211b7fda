import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cflab.votedata import (
    IMPLICIT_SCALE,
    ActiveCase,
    Protocol,
    VoteDataError,
    VoteScale,
    generate_active_cases,
    load_msweb,
    load_votes_csv,
    save_split_manifest,
    save_votes_csv,
    split_users,
)

from conftest import (SCALE_0_5, case_for, duplicated_db, make_db, random_explicit_db,
                      random_implicit_db)
from reference import expected_vote_scalar, lexsort_ranked, rank_score_scalar, state_of

MSWEB_FIXTURE = """\
I,4,"www.example.com","created by getlog.c"
A,1000,1,"Home Page","/home"
A,1001,1,"Support","/support"
C,"10001",10001
V,1000,1
V,1001,1
"""


class TestVoteScale:
    def test_rejects_inverted_range(self):
        with pytest.raises(VoteDataError):
            VoteScale(5, 0, 2.0, False)

    def test_rejects_neutral_outside_range(self):
        with pytest.raises(VoteDataError):
            VoteScale(0, 5, 6.0, False)

    def test_implicit_must_be_binary(self):
        with pytest.raises(VoteDataError):
            VoteScale(0, 5, 0.0, True)

    def test_states_include_no_vote(self):
        assert SCALE_0_5.num_states == 7
        assert IMPLICIT_SCALE.num_states == 2
        assert state_of(SCALE_0_5, None) == 0
        assert SCALE_0_5.states_of([0, 5]).tolist() == [1, 6]
        assert [state_of(SCALE_0_5, v) for v in (0, 5)] == [1, 6]
        assert IMPLICIT_SCALE.states_of([1.0]).tolist() == [state_of(IMPLICIT_SCALE, 1.0)] == [1]

    @settings(max_examples=80, deadline=None)
    @given(
        scale=st.sampled_from([SCALE_0_5, VoteScale(1, 3, 2.0, False), VoteScale(-2, 7, 1.0, False),
                               IMPLICIT_SCALE]),
        votes=st.lists(st.sampled_from([-3, -2, -0.0, 0, 0.5, 1, 1 + 1e-12, 1.01, 2, 2.5, 3, 5, 7,
                                        8, math.nan]), max_size=6),
    )
    def test_states_of_is_state_of_of_each_vote(self, scale, votes):
        # the first vote that is not a value names the error
        try:
            want = [state_of(scale, v) for v in votes]
        except VoteDataError as exc:
            with pytest.raises(VoteDataError) as got:
                scale.states_of(votes)
            assert str(got.value) == str(exc)
        else:
            got = scale.states_of(votes)
            assert got.dtype == np.int64 and got.tolist() == want

    def test_vote_state_encoding_matches_state_of(self, tiny_explicit_db):
        db = tiny_explicit_db
        idx = db.index
        s_votes = db.scale.num_states - 1
        want = np.zeros((len(db.users), len(db.items) * s_votes))
        for u, it, v in db.iter_votes():
            want[idx.user_pos[u], idx.item_pos[it] * s_votes + state_of(db.scale, v) - 1] = 1
        np.testing.assert_array_equal(idx.vote_states.toarray(), want)

    @pytest.mark.parametrize("scale, vote", [(SCALE_0_5, 2.5), (IMPLICIT_SCALE, 0.0)])
    def test_vote_state_encoding_rejects_what_state_of_rejects(self, scale, vote):
        db = make_db([("u", "a", vote), ("u", "b", 1)], scale)
        with pytest.raises(VoteDataError) as got:
            db.index.vote_states
        with pytest.raises(VoteDataError) as want:
            state_of(scale, vote)
        assert str(got.value) == str(want.value)


    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([SCALE_0_5, VoteScale(1, 3, 2.0, False), VoteScale(-2, 7, 1.0, False),
                               IMPLICIT_SCALE]),
        rows=st.integers(1, 40),
        concentration=st.floats(0.01, 5.0),
    )
    def test_rank_score_of_a_stack_is_each_row_scored_alone(self, seed, scale, rows, concentration):
        # bitwise: a stacked `@`, `einsum` or a row sum differs in the last bits
        dist = np.random.default_rng(seed).dirichlet(
            np.full(scale.num_states, concentration), size=rows)
        wide = np.zeros((rows, scale.num_states + 2))
        wide[:, 1:-1] = dist
        for rule, scalar in ((scale.rank_score, rank_score_scalar),
                             (scale.expected_vote, expected_vote_scalar)):
            # a draw with no mass on the vote states scores NaN on both sides
            with np.errstate(invalid="ignore"):
                want = [scalar(d, scale) for d in dist]
                got = [rule(dist), rule(wide[:, 1:-1]), [rule(d) for d in dist]]  # strided rows
            for stack in got:
                np.testing.assert_array_equal(stack, want)


class TestLoadMsweb:
    def test_small_fixture_counts(self, tmp_path):
        p = tmp_path / "msweb.data"
        p.write_text(MSWEB_FIXTURE)
        db = load_msweb(p)
        assert len(db.users) == 1
        assert len(db.items) == 2
        assert db.num_votes == 2
        assert db.scale.implicit

    def test_visit_before_case_is_format_error(self, tmp_path):
        p = tmp_path / "bad.data"
        p.write_text("V,1000,1\n")
        with pytest.raises(VoteDataError, match="line 1"):
            load_msweb(p)

    def test_undeclared_vroot_is_error(self, tmp_path):
        p = tmp_path / "bad.data"
        p.write_text('A,1000,1,"x","/x"\nC,"1",1\nV,9999,1\n')
        with pytest.raises(VoteDataError, match="line 3"):
            load_msweb(p)

    def test_malformed_attribute_reports_line(self, tmp_path):
        p = tmp_path / "bad.data"
        p.write_text("A,notanint,1\n")
        with pytest.raises(VoteDataError, match="line 1"):
            load_msweb(p)

    def test_users_without_visits_dropped(self, tmp_path):
        p = tmp_path / "msweb.data"
        p.write_text('A,1000,1,"x","/x"\nC,"1",1\nC,"2",2\nV,1000,1\n')
        db = load_msweb(p)
        assert db.users == (2,)

    def test_csv_round_trip_preserves_votes(self, tmp_path):
        p = tmp_path / "msweb.data"
        p.write_text(MSWEB_FIXTURE)
        db = load_msweb(p)
        out = tmp_path / "votes.csv"
        save_votes_csv(db, out)
        again = load_votes_csv(out, IMPLICIT_SCALE)
        original = sorted((str(u), str(i), v) for u, i, v in db.iter_votes())
        loaded = sorted((str(u), str(i), v) for u, i, v in again.iter_votes())
        assert original == loaded


class TestLoadVotesCsv:
    def test_counts_users(self, tmp_path):
        p = tmp_path / "votes.csv"
        p.write_text("u1,i1,3\nu1,i2,4\nu2,i1,5\n")
        db = load_votes_csv(p, SCALE_0_5)
        assert len(db.users) == 2
        assert db.num_votes == 3

    def test_header_is_optional(self, tmp_path):
        p = tmp_path / "votes.csv"
        p.write_text("user,item,vote\nu1,i1,3\nu1,i2,2\n")
        db = load_votes_csv(p, SCALE_0_5)
        assert db.num_votes == 2

    def test_vote_outside_scale_names_row(self, tmp_path):
        p = tmp_path / "votes.csv"
        p.write_text("u1,i1,7\n")
        with pytest.raises(VoteDataError, match="line 1"):
            load_votes_csv(p, SCALE_0_5)

    def test_duplicate_keeps_last_and_warns(self, tmp_path, caplog):
        p = tmp_path / "votes.csv"
        p.write_text("u1,i1,2\nu1,i1,4\nu1,i2,1\n")
        with caplog.at_level("WARNING"):
            db = load_votes_csv(p, SCALE_0_5)
        assert db.votes["u1"]["i1"] == 4.0
        assert db.num_votes == 2
        assert any("duplicate" in r.message for r in caplog.records)

    def test_empty_file_is_error(self, tmp_path):
        p = tmp_path / "votes.csv"
        p.write_text("")
        with pytest.raises(VoteDataError, match="empty"):
            load_votes_csv(p, SCALE_0_5)


def user_mean(db, user):
    return db.index.user_means[db.index.user_pos[user]]


class TestMeanVote:
    def test_simple_mean(self):
        db = make_db([("u", "a", 3), ("u", "b", 4), ("u", "c", 5)])
        assert user_mean(db, "u") == pytest.approx(4.0)

    def test_single_vote(self):
        db = make_db([("u", "a", 2), ("x", "a", 1)])
        assert user_mean(db, "u") == 2.0

    def test_implicit_means_are_one(self):
        db = make_db([("u", "a", 1), ("u", "b", 1)], scale=IMPLICIT_SCALE)
        assert user_mean(db, "u") == 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), implicit=st.booleans())
    def test_index_totals_walk_the_votes(self, seed, implicit):
        # a 0 vote is a recorded vote: it counts for its user and item
        rng = np.random.default_rng(seed)
        top = 1 if implicit else 5
        rows = [(f"u{i}", f"i{j}", float(rng.integers(0, top + 1)))
                for i in range(int(rng.integers(1, 8)))
                for j in range(6) if rng.random() < 0.5 or j == i % 6]
        rows.append(("u0", "i5", 0.0))
        db = make_db(rows, IMPLICIT_SCALE if implicit else SCALE_0_5,
                     items=[f"i{j}" for j in range(7)])
        idx = db.index
        votes = [db.votes[u] for u in db.users]
        assert idx.user_counts.tolist() == [float(len(per)) for per in votes]
        assert idx.user_sums.tolist() == [float(sum(per.values())) for per in votes]
        assert idx.user_means.tolist() == [sum(per.values()) / len(per) for per in votes]
        assert idx.item_counts.tolist() == [
            float(sum(it in per for per in votes)) for it in db.items]
        assert idx.user_counts.dtype == idx.item_counts.dtype == float


class TestGenerateActiveCases:
    def test_all_but_one_forced_split(self):
        db = make_db([("u", "a", 1), ("u", "b", 2), ("x", "a", 1), ("x", "b", 1)])
        cases = generate_active_cases(db, Protocol.all_but_1(), seed=0)
        for c in cases:
            assert len(c.observed) == 1
            assert len(c.targets) == 1

    def test_given_eliminates_short_users(self):
        rows = [("u", f"i{k}", 1) for k in range(7)]
        rows += [("big", f"i{k}", 1) for k in range(12)]
        db = make_db(rows, scale=IMPLICIT_SCALE)
        cases = generate_active_cases(db, Protocol.given(10), seed=0)
        assert [c.user for c in cases] == ["big"]
        assert len(cases[0].observed) == 10
        assert len(cases[0].targets) == 2

    def test_given_two_forced_sizes(self):
        db = make_db([("u", f"i{k}", 2) for k in range(5)] + [("x", "i0", 1), ("x", "i1", 1), ("x", "i2", 3)])
        cases = generate_active_cases(db, Protocol.given(2), seed=3)
        by_user = {c.user: c for c in cases}
        assert len(by_user["u"].observed) == 2
        assert len(by_user["u"].targets) == 3

    def test_every_user_eliminated_is_error(self):
        db = make_db([("u", "a", 1), ("x", "b", 2)])
        with pytest.raises(VoteDataError):
            generate_active_cases(db, Protocol.all_but_1(), seed=0)

    def test_same_seed_same_cases(self):
        rng = np.random.default_rng(5)
        db = random_explicit_db(rng, n_users=12, n_items=9)
        a = generate_active_cases(db, Protocol.given(2), seed=42)
        b = generate_active_cases(db, Protocol.given(2), seed=42)
        assert [(c.user, dict(c.observed), dict(c.targets)) for c in a] == [
            (c.user, dict(c.observed), dict(c.targets)) for c in b
        ]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), db_seed=st.integers(0, 500))
    def test_partition_property(self, seed, db_seed):
        db = random_explicit_db(np.random.default_rng(db_seed), n_users=8, n_items=7)
        for protocol in (Protocol.all_but_1(), Protocol.given(2)):
            try:
                cases = generate_active_cases(db, protocol, seed)
            except VoteDataError:
                continue
            for c in cases:
                merged = dict(c.observed) | dict(c.targets)
                assert merged == db.votes[c.user]
                assert not set(c.observed) & set(c.targets)


class TestSplitUsers:
    def test_partition_and_determinism(self):
        db = random_explicit_db(np.random.default_rng(1), n_users=20)
        tr1, te1 = split_users(db, 0.3, seed=9)
        tr2, te2 = split_users(db, 0.3, seed=9)
        assert tr1.users == tr2.users and te1.users == te2.users
        assert set(tr1.users) | set(te1.users) == set(db.users)
        assert not set(tr1.users) & set(te1.users)
        assert len(te1.users) == 6


class TestSplitManifest:
    def test_records_the_split(self, tmp_path):
        db = random_explicit_db(np.random.default_rng(2), n_users=8)
        cases = generate_active_cases(db, Protocol.given(2), seed=1)
        path = tmp_path / "split.json"
        save_split_manifest(path, cases, Protocol.given(2), seed=1)
        doc = json.loads(path.read_text())
        assert doc["cases"] == [
            {"user": c.user, "observed": list(c.observed), "targets": list(c.targets)}
            for c in cases
        ]
        assert doc["protocol"] == "Given2"
        assert doc["seed"] == 1

    def test_same_seed_byte_identical_manifest(self, tmp_path):
        db = random_explicit_db(np.random.default_rng(3), n_users=10)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_split_manifest(p1, generate_active_cases(db, Protocol.given(2), 5), Protocol.given(2), 5)
        save_split_manifest(p2, generate_active_cases(db, Protocol.given(2), 5), Protocol.given(2), 5)
        assert p1.read_bytes() == p2.read_bytes()


class TestActiveCase:
    def test_rejects_overlap(self):
        with pytest.raises(VoteDataError):
            ActiveCase("u", {"a": 1.0}, {"a": 2.0})

    def test_rejects_empty_observed(self):
        with pytest.raises(VoteDataError):
            ActiveCase("u", {}, {"a": 2.0})


class TestDatabaseValidation:
    def test_out_of_scale_vote_rejected(self):
        with pytest.raises(VoteDataError):
            make_db([("u", "a", 9)])

    def test_protocol_parsing(self):
        assert Protocol.parse("AllBut1").label == "AllBut1"
        assert Protocol.parse("given10").n == 10
        with pytest.raises(ValueError):
            Protocol.parse("bogus")
        with pytest.raises(ValueError):
            Protocol.given(0)


class TestCountedPositions:
    """`_Index.positions` counts the position that `np.lexsort` lists
    (`reference.lexsort_ranked`)."""

    KEYS = (0.0, -0.0, 1.0, 1.0, -1.0, 2.5, math.nan, math.nan, math.inf, -math.inf)

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.permutations(range(12)).map(lambda p: p[:int(p[0]) + 1]),
        int_ids=st.booleans(),
        data=st.data(),
    )
    def test_count_is_the_listed_position(self, ids, int_ids, data):
        items = list(ids) if int_ids else [f"i{k}" for k in ids]  # "i10" sorts before "i2"
        index = make_db([("u", items[0], 1)], IMPLICIT_SCALE, items=items).index
        t = len(items)
        for _ in range(3):
            keys = np.array(data.draw(st.lists(st.sampled_from(self.KEYS), min_size=t, max_size=t)))
            uninformed = np.array(data.draw(st.lists(st.booleans(), min_size=t, max_size=t)))
            skip = np.array(data.draw(st.lists(st.booleans(), min_size=t, max_size=t)))
            observed = {items[j]: 1.0 for j in np.flatnonzero(skip)}
            ranked = lexsort_ranked(index, observed, uninformed, keys)
            cols = np.flatnonzero(~skip)
            rows = np.ones((len(cols), 1), dtype=bool)
            got = index.positions(rows * skip, rows * uninformed, rows * keys, cols)
            assert got.tolist() == [ranked.index(items[j]) for j in cols]


class TestObservedVotes:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_cases=st.integers(0, 5), explicit=st.booleans())
    @example(seed=0, n_cases=0, explicit=True)  # an empty block
    def test_equals_a_walk_over_each_case(self, seed, n_cases, explicit):
        rng = np.random.default_rng(seed)
        db = random_explicit_db(rng, 4, 6) if explicit else random_implicit_db(rng, 4, 6)
        pool = list(db.items) + ["zz", "yy"]  # two items outside training
        cases = []
        for _ in range(n_cases):
            # any order, and 0 votes on the explicit scale
            picks = rng.permutation(len(pool))[:int(rng.integers(1, len(pool) + 1))]
            values = db.scale.vote_values
            cases.append(case_for("t", {pool[k]: float(values[rng.integers(len(values))])
                                        for k in picks}))
        rows, cols, votes = db.index.observed_votes(cases)
        assert (rows.dtype, cols.dtype, votes.dtype) == (np.intp, np.intp, np.float64)
        want = [(k, db.items.index(it), v) for k, case in enumerate(cases)
                for it, v in case.observed.items() if it in db.items]
        assert list(zip(rows.tolist(), cols.tolist(), votes.tolist())) == want


class TestVotePatterns:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        explicit=st.booleans(),
        n_users=st.integers(1, 50),
        profiles=st.integers(1, 8),
    )
    def test_gather_rebuilds_vote_states(self, seed, explicit, n_users, profiles):
        scale = SCALE_0_5 if explicit else IMPLICIT_SCALE
        db = duplicated_db(np.random.default_rng(seed), scale, n_users, 6, profiles)
        X, inverse = db.index.vote_patterns
        states = db.index.vote_states
        back = X[inverse]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back, name), getattr(states, name))
        # distinct rows, numbered in the order of their first user
        assert len({X.indices[a:b].tobytes() for a, b in zip(X.indptr[:-1], X.indptr[1:])}) == X.shape[0]
        ids, first = np.unique(inverse, return_index=True)
        assert np.array_equal(ids, np.arange(X.shape[0]))
        assert (np.diff(first) > 0).all()
