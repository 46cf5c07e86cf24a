import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conet.data import (
    CrossDomainDataset,
    InteractionDataset,
    SyntheticConfig,
    align_domains,
    epoch_batches,
    generate_synthetic,
    load_interactions,
    load_split_manifest,
    loo_split,
    reduce_training,
    sample_eval_negatives,
    save_split_manifest,
    write_atomic,
    write_interactions,
    write_json,
)
from conet.errors import ConfigError, DataError
from conet.numerics import derive_rng

from oracles import (from_adjacency, has, held_by_user, items_by_user, reference_batches,
                     reference_load_interactions, reference_loo_draws, reference_manifest_text,
                     same_interactions)

HELD_OUT = ("users", "test", "validation", "eval_negatives")


def make_dataset(adjacency, num_items, ids=True):
    return from_adjacency(
        len(adjacency),
        num_items,
        adjacency,
        user_ids=[f"u{k}" for k in range(len(adjacency))] if ids else None,
        item_ids=[f"i{k}" for k in range(num_items)] if ids else None,
    )


def same_held_out(a, b):
    """True when two splits hold out the same items and negatives for the same users."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in HELD_OUT)


class TestInteractionDataset:
    def test_csr_layout(self):
        ds = make_dataset([[3, 1], [], [0]], 4)
        assert ds.indptr.tolist() == [0, 2, 2, 3]
        assert ds.indices.tolist() == [1, 3, 0]
        assert ds.keys.tolist() == [1, 3, 8]
        assert ds.degrees.tolist() == [2, 0, 1]
        assert [a.tolist() for a in items_by_user(ds)] == [[1, 3], [], [0]]
        assert not ds.indices.flags.writeable and not ds.items_of(0).flags.writeable

    @pytest.mark.parametrize("adjacency, problem", [
        ([[0], [1, 4]], r"\(user 1, item 4\) is out of range"),
        ([[0], [-1]], r"\(user 1, item -1\) is out of range"),
        ([[0, 2], [1, 3, 1]], "user 1 has duplicate interactions"),
    ])
    def test_rejects_bad_rows(self, adjacency, problem):
        with pytest.raises(DataError, match=problem):
            make_dataset(adjacency, 4)

    def test_rejects_zero_users(self):
        with pytest.raises(DataError, match="at least one user and one item"):
            InteractionDataset.from_pairs(0, 4, [], [], [], list("wxyz"))

    def test_contains_and_without(self):
        ds = make_dataset([[1, 3], [], [0]], 4)
        assert ds.contains([0, 0, 1, 2, 2], [1, 2, 1, 0, 3]).tolist() == [
            True, False, False, True, False]
        assert ds.contains(np.array([[0], [2]]), np.array([[3, 0]])).tolist() == [
            [True, False], [False, True]]
        smaller = ds.without([0, 2, 1], [3, 0, 2])
        assert [a.tolist() for a in items_by_user(smaller)] == [[1], [], []]
        assert not smaller.contains([0, 2], [3, 0]).any()
        assert smaller.user_ids == ds.user_ids and smaller.item_ids == ds.item_ids
        with pytest.raises(DataError, match=r"\(user 3, item 0\) is out of range"):
            InteractionDataset.from_pairs(3, 4, [0, 3], [1, 0], ["a", "b", "c"], list("wxyz"))

    def test_contains_without_interactions(self):
        ds = InteractionDataset.from_pairs(2, 3, [], [], ["a", "b"], list("xyz"))
        assert ds.contains([0, 1, 1], [0, 2, 1]).tolist() == [False] * 3
        assert ds.contains(np.array([[0], [1]]), np.array([[0, 2]])).tolist() == [
            [False, False], [False, False]]

    def test_pick_items(self):
        ds = make_dataset([[3, 1], [], [0]], 4)
        users = np.array([0, 1, 2, 0])
        assert ds.pick_items(users).tolist() == [1, -1, 0, 1]
        drawn = ds.pick_items(users, np.random.default_rng(0))
        assert drawn[1] == -1 and drawn[2] == 0 and {drawn[0], drawn[3]} <= {1, 3}


# Ids may hold spaces, '#' and characters that are line breaks to
# str.splitlines but not to the loader; a few fixed ones make repeats likely.
ID = st.sampled_from(["u1", "u 2", "a#b", "x", "7"]) | st.text(
    alphabet="ab #\u00e9\x0b\u2028", min_size=1, max_size=3)
TABBED_LINE = st.builds("{}\t{}".format, ID, ID) | st.builds(
    "{}\t{}\t{}".format, ID, ID, st.sampled_from(["c", "c d", "c\td", "", "\t"]))  # extra columns
COMMENT_LINE = st.builds("#{}".format, st.text(alphabet="c\t #", max_size=4))
ANY_LINE = TABBED_LINE | COMMENT_LINE | st.just("")
MALFORMED_LINE = st.sampled_from(["u", " ", "u\t", "\ti", "\t", "u\t\tx"])


class TestLoadInteractions:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.booleans().flatmap(lambda tabbed: st.lists(TABBED_LINE if tabbed else ANY_LINE,
                                                               max_size=16)),
           malformed=st.none() | st.tuples(st.integers(0, 16), MALFORMED_LINE),
           newline=st.sampled_from(["\n", "\r\n"]), bom=st.booleans(),
           final_newline=st.booleans(), minimum=st.integers(1, 4))
    @example(lines=["a\tx", "a\ty", "b\tx"], malformed=None, newline="\n", bom=False,
             final_newline=True, minimum=4)  # the filter drops every user
    @example(lines=["a\tx", "a\tx", "a\ty"], malformed=(1, "u\t"), newline="\r\n", bom=True,
             final_newline=False, minimum=1)
    @example(lines=["a\tx\tc", "a\ty"], malformed=(2, "u"), newline="\n", bom=False,
             final_newline=True, minimum=1)  # as many tabs as lines, one line without
    def test_matches_the_line_by_line_reference(self, tmp_path_factory, lines, malformed,
                                                newline, bom, final_newline, minimum):
        if malformed is not None:
            lines.insert(malformed[0] % (len(lines) + 1), malformed[1])
        text = newline.join(lines) + (newline if final_newline and lines else "")
        path = tmp_path_factory.mktemp("log") / "t.tsv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        decoded = text.replace("\r\n", "\n")
        try:
            user_ids, item_ids, adjacency = reference_load_interactions(decoded, minimum)
        except DataError as exc:
            with pytest.raises(DataError) as raised:
                load_interactions(path, minimum)
            assert str(raised.value) == f"{path}: {exc}"
            return
        ds = load_interactions(path, minimum)
        assert ds.user_ids == user_ids and ds.item_ids == item_ids
        assert [a.tolist() for a in items_by_user(ds)] == [sorted(row) for row in adjacency]

    def test_dedup(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\na\tx\na\ty\n")
        ds = load_interactions(path, min_user_interactions=1)
        assert (ds.num_users, ds.num_items, ds.num_interactions) == (1, 2, 2)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("")
        with pytest.raises(DataError):
            load_interactions(path, min_user_interactions=1)

    def test_density_hand_count(self, tmp_path):
        # 5 lines, 2 users, 3 items; duplicates collapse to 3 of 6 cells
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\na\tx\na\ty\nb\tz\nb\tz\n")
        ds = load_interactions(path, min_user_interactions=1)
        assert ds.num_users == 2 and ds.num_items == 3
        assert ds.density == 0.5

    def test_non_utf8_is_data_error(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes(b"a\tx\na\t\xff\n")
        with pytest.raises(DataError, match="t.tsv"):
            load_interactions(path, min_user_interactions=1)

    @pytest.mark.parametrize("minimum", [1, 3])
    def test_leading_byte_order_mark_is_not_text(self, tmp_path, minimum):
        # Windows editors start a UTF-8 file with a BOM and end lines with CRLF.
        text = "a\tx\r\na\ty\r\na\tz\r\nb\tx\r\nb\ty\r\nb\tw\r\n".encode("utf-8")
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        a, b = load_interactions(plain, minimum), load_interactions(marked, minimum)
        assert a.user_ids == b.user_ids == ("a", "b")
        assert a.item_ids == b.item_ids == ("x", "y", "z", "w")
        assert np.array_equal(a.keys, b.keys)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\nbroken-line\n")
        with pytest.raises(DataError, match="line 2"):
            load_interactions(path, min_user_interactions=1)

    def test_comments_and_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\na\tx\textra\tcols\na\ty\n")
        ds = load_interactions(path, min_user_interactions=1)
        assert ds.num_interactions == 2

    def test_min_interactions_filter(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\na\ty\na\tz\nb\tx\n")
        ds = load_interactions(path, min_user_interactions=3)
        assert ds.num_users == 1
        assert ds.user_ids == ("a",)
        # items of the dropped user vanish from the index space
        assert ds.num_items == 3

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tx\na\ty\nb\ty\nb\tz\nc\tx\n")
        ds = load_interactions(path, min_user_interactions=1)
        out = tmp_path / "copy.tsv"
        write_interactions(ds, out)
        again = load_interactions(out, min_user_interactions=1)
        assert same_interactions(ds, again)
        assert ds.user_ids == again.user_ids
        assert ds.item_ids == again.item_ids


class TestAlignDomains:
    def test_disjoint_users_error(self):
        t = make_dataset([[0], [1]], 2)
        s = from_adjacency(2, 2, [[0], [1]], user_ids=["x", "y"], item_ids=["a", "b"])
        with pytest.raises(DataError):
            align_domains(t, s)

    def test_domains_over_different_user_counts_are_refused(self):
        with pytest.raises(DataError, match="share the same user set"):
            CrossDomainDataset(target=make_dataset([[0], [1]], 2), source=make_dataset([[0]], 2))

    def test_identical_user_sets(self):
        t = make_dataset([[0, 1], [1]], 2)
        s = make_dataset([[0], [0, 1]], 2)
        data = align_domains(t, s)
        assert data.num_users == 2

    def test_intersection_by_hand(self):
        t = from_adjacency(3, 2, [[0], [1], [0, 1]], user_ids=["a", "b", "c"],
                           item_ids=["i", "j"])
        s = from_adjacency(3, 2, [[0], [1], [0]], user_ids=["b", "c", "d"],
                           item_ids=["k", "l"])
        data = align_domains(t, s)
        assert data.num_users == 2
        assert data.target.user_ids == ("b", "c")
        # source items reindexed in first-appearance order over shared users
        assert data.source.item_ids == ("k", "l")
        assert list(data.source.items_of(0)) == [0]
        assert list(data.source.items_of(1)) == [1]


def small_cross_domain(num_users=12, per_user_target=6, per_user_source=4,
                       n_target=120, n_source=80):
    rng = np.random.default_rng(3)
    t_adj = [sorted(rng.choice(n_target, per_user_target, replace=False)) for _ in range(num_users)]
    s_adj = [sorted(rng.choice(n_source, per_user_source, replace=False)) for _ in range(num_users)]
    return CrossDomainDataset(
        target=make_dataset(t_adj, n_target),
        source=make_dataset(s_adj, n_source),
    )


class TestLooSplit:
    def test_holds_out_two_per_eval_user(self):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(0, "split"))
        for u, test, validation in zip(split.users.tolist(), split.test.tolist(),
                                       split.validation.tolist()):
            assert split.train.target.items_of(u).size == 4
            assert not has(split.train.target, u, test)
            assert not has(split.train.target, u, validation)
            assert test != validation

    def test_held_out_arrays_are_read_only(self):
        split = loo_split(small_cross_domain(), derive_rng(0, "split"))
        u = split.users.size
        assert u == 12
        for name, shape in zip(HELD_OUT, ((u,), (u,), (u,), (u, 99))):
            arr = getattr(split, name)
            assert arr.shape == shape and arr.dtype == np.int64
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_cold_users_keep_everything_and_skip_eval(self):
        data = CrossDomainDataset(
            target=make_dataset([[0, 1], [2, 3, 4]], 120),
            source=make_dataset([[0], [1]], 80),
        )
        split = loo_split(data, derive_rng(0, "split"))
        assert 0 not in split.users
        assert split.train.target.items_of(0).size == 2
        assert 1 in split.users

    def test_deterministic(self):
        data = small_cross_domain()
        a = loo_split(data, derive_rng(9, "split"))
        b = loo_split(data, derive_rng(9, "split"))
        assert same_held_out(a, b)

    def test_partition_union_is_original(self):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(4, "split"))
        for u, test, validation in zip(split.users.tolist(), split.test.tolist(),
                                       split.validation.tolist()):
            rebuilt = set(split.train.target.items_of(u)) | {test, validation}
            assert rebuilt == set(data.target.items_of(u))
            assert len(rebuilt) == data.target.items_of(u).size

    def test_source_never_split(self):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(4, "split"))
        assert same_interactions(split.train.source, data.source)

    def test_negatives_exclude_all_interactions(self):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(4, "split"))
        for u, negs in zip(split.users.tolist(), split.eval_negatives):
            assert negs.size == 99
            assert np.unique(negs).size == 99
            for j in negs:
                assert not has(data.target, u, int(j))


class TestSampleEvalNegatives:
    def test_forced_complement(self):
        ds = make_dataset([[5]], 100)
        negs = sample_eval_negatives(ds, 0, derive_rng(0, "n"))
        assert sorted(negs) == [i for i in range(100) if i != 5]

    def test_too_few_items_errors(self):
        ds = make_dataset([[0]], 50)
        with pytest.raises(DataError):
            sample_eval_negatives(ds, 0, derive_rng(0, "n"))

    def test_deterministic(self):
        ds = make_dataset([[5, 7]], 300)
        a = sample_eval_negatives(ds, 0, derive_rng(1, "n"))
        b = sample_eval_negatives(ds, 0, derive_rng(1, "n"))
        assert np.array_equal(a, b)


class TestEpochBatches:
    def test_batch_sizes_and_labels(self):
        data = small_cross_domain(num_users=40, per_user_target=8)
        batches = list(epoch_batches(data.target, "target", 128, 1, derive_rng(0, "b")))
        full = batches[0]
        assert len(full) == 256
        assert int(full.labels.sum()) == 128
        total_pos = sum(int(b.labels.sum()) for b in batches)
        assert total_pos == data.target.num_interactions

    def test_zero_ratio_gives_positives_only(self):
        data = small_cross_domain()
        batches = list(epoch_batches(data.target, "target", 16, 0, derive_rng(0, "b")))
        assert all(b.labels.all() for b in batches)

    def test_negatives_avoid_adjacency(self):
        data = small_cross_domain()
        for batch in epoch_batches(data.target, "target", 32, 2, derive_rng(1, "b")):
            for u, i, y in zip(batch.users, batch.items, batch.labels):
                if y == 0:
                    assert not has(data.target, int(u), int(i))
                else:
                    assert has(data.target, int(u), int(i))

    def test_epoch_covers_positives_without_replacement(self):
        data = small_cross_domain()
        seen = []
        for batch in epoch_batches(data.target, "target", 8, 0, derive_rng(2, "b")):
            seen += [(int(u), int(i)) for u, i in zip(batch.users, batch.items)]
        assert sorted(seen) == sorted(map(tuple, data.target.pairs()))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("ratio", [0, 1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_draws_as_per_slot_sampler(self, seed, ratio, dense):
        # Dense rows (>= 50% of the items) make rejections frequent.
        if dense:
            rng = np.random.default_rng(seed)
            rows = [rng.choice(12, rng.integers(6, 12), replace=False) for _ in range(20)]
            dataset = make_dataset(rows, 12)
        else:
            dataset = small_cross_domain().target
        ours_rng, ref_rng = derive_rng(seed, "b"), derive_rng(seed, "b")
        ours = list(epoch_batches(dataset, "target", 16, ratio, ours_rng))
        ref = list(reference_batches(dataset, 16, ratio, ref_rng))
        assert len(ours) == len(ref)
        for batch, (users, items, labels) in zip(ours, ref):
            assert np.array_equal(batch.users, users)
            assert np.array_equal(batch.items, items)
            assert np.array_equal(batch.labels, labels)
            assert batch.labels.dtype == np.float64 and batch.items.dtype == np.int64
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_user_holding_every_item_is_data_error(self):
        dataset = make_dataset([[0, 1], [1]], 2)
        with pytest.raises(DataError, match="source domain: user 'u0' holds all 2 items"):
            next(epoch_batches(dataset, "source", 4, 1, derive_rng(0, "b")))
        assert len(list(epoch_batches(dataset, "source", 4, 0, derive_rng(0, "b")))) == 1

    def test_domain_without_interactions_is_data_error(self):
        dataset = make_dataset([[], []], 3)
        with pytest.raises(DataError, match="source domain has no training interactions"):
            next(epoch_batches(dataset, "source", 4, 1, derive_rng(0, "b")))

    def test_to_examples_view(self):
        data = small_cross_domain()
        batch = next(epoch_batches(data.target, "target", 4, 1, derive_rng(3, "b")))
        assert len(batch) == 8 and batch.items.size == batch.labels.size == 8
        assert all((y == 1) == has(data.target, int(u), int(i))
                   for u, i, y in zip(batch.users, batch.items, batch.labels))


class TestGenerateSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(num_users=60, num_items_target=200, num_items_source=100,
                              latent_dim=4, target_density=0.05, source_density=0.1, seed=5)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert same_interactions(a.target, b.target)
        assert same_interactions(a.source, b.source)

    def test_density_within_contract(self):
        cfg = SyntheticConfig(num_users=200, num_items_target=400, num_items_source=200,
                              latent_dim=4, target_density=0.05, source_density=0.1, seed=1)
        data = generate_synthetic(cfg)
        assert abs(data.target.density - 0.05) / 0.05 < 0.05
        assert abs(data.source.density - 0.1) / 0.1 < 0.05

    def test_relatedness_extremes_differ(self):
        base = dict(num_users=50, num_items_target=100, num_items_source=100,
                    latent_dim=4, target_density=0.1, source_density=0.1, seed=2)
        rho0 = generate_synthetic(SyntheticConfig(relatedness=0.0, **base))
        rho1 = generate_synthetic(SyntheticConfig(relatedness=1.0, **base))
        assert same_interactions(rho0.target, rho1.target)  # target untouched by rho
        assert not same_interactions(rho0.source, rho1.source)

    def test_rho_one_swapped_domains_mirror(self):
        a = generate_synthetic(SyntheticConfig(
            num_users=50, num_items_target=100, num_items_source=80, latent_dim=4,
            relatedness=1.0, target_density=0.1, source_density=0.05, seed=7))
        b = generate_synthetic(SyntheticConfig(
            num_users=50, num_items_target=80, num_items_source=100, latent_dim=4,
            relatedness=1.0, target_density=0.05, source_density=0.1, seed=7))
        assert same_interactions(a.target, b.source)
        assert same_interactions(a.source, b.target)

    def test_interactions_per_user_matches_density(self):
        cfg = SyntheticConfig(num_users=100, num_items_target=200, num_items_source=100,
                              latent_dim=4, target_density=0.05, source_density=0.1, seed=3)
        data = generate_synthetic(cfg)
        counts = [data.target.items_of(u).size for u in range(100)]
        assert min(counts) == 10  # 0.05 * 200; coverage swaps keep counts fixed
        assert np.mean(counts) < 10.1
        assert abs(data.target.density - 0.05) / 0.05 < 0.05

    def test_tsv_round_trip_identity(self, tmp_path):
        cfg = SyntheticConfig(num_users=40, num_items_target=60, num_items_source=50,
                              latent_dim=4, target_density=0.1, source_density=0.1, seed=9)
        data = generate_synthetic(cfg)
        path = tmp_path / "target.tsv"
        write_interactions(data.target, path)
        again = load_interactions(path, min_user_interactions=1)
        assert same_interactions(data.target, again)
        assert data.target.item_ids == again.item_ids

    def test_unachievable_density_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(num_items_target=150, target_density=0.05)

    @pytest.mark.parametrize("change", [{"num_users": 0}, {"latent_dim": 0},
                                        {"relatedness": 1.5}, {"target_density": 0.0},
                                        {"num_items_target": 10, "target_density": 0.01}])
    def test_bad_value_rejected_when_built_and_through_replace(self, change):
        with pytest.raises(ConfigError):
            SyntheticConfig(**change)
        with pytest.raises(ConfigError):
            dataclasses.replace(SyntheticConfig(), **change)

    def test_item_nobody_can_give_up_goes_to_the_best_scoring_user(self):
        # One user picks 2 of 4 items and holds no item anyone else holds,
        # so each unpicked item joins its set without a swap.
        data = generate_synthetic(SyntheticConfig(num_users=1, num_items_target=4,
                                                  num_items_source=4, target_density=0.5,
                                                  source_density=0.5))
        for domain in (data.target, data.source):
            assert domain.num_items == 4 and domain.items_of(0).tolist() == [0, 1, 2, 3]

    # sha256 of the keys and ids of the default-sized data sets that
    # acceptance criteria 4, 5, 7 and 8 train on, recorded when the generator
    # still picked and counted items one user at a time: a rewrite of the
    # generator must not move the acceptance studies' data.
    @pytest.mark.parametrize("seed,digest", enumerate([
        "765aad9d395afba8990f5c09b2fa22d68f11e379e5716512a305a81982b6f7c7",
        "52225416c995671ddadd018f7e7940ad772b2a6a086cbae19105d684de283c6d",
        "d27872080c1d06a30d87f57d5bd053c317981c2e4ff315f5385c8a495fcd7485",
        "6881135eb862f61a4e52db4e24bbc976e8edbe3f1a5a301fef96751769591d04",
        "63c0d1f737ed2e725dec2b8759a1e7bfd47f4650af88146c9f1ef67910d0b0fe",
    ]))
    def test_default_data_match_the_pinned_digest(self, seed, digest):
        data = generate_synthetic(SyntheticConfig(seed=seed))
        h = hashlib.sha256()
        for domain in (data.target, data.source):
            h.update(domain.keys.astype("<i8").tobytes())
            h.update("\n".join(domain.user_ids + domain.item_ids).encode())
        assert h.hexdigest() == digest


class TestWriteAtomic:
    def test_replaces_the_file_and_leaves_nothing_else(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old")
        write_atomic(path, "new \u00e9\n")
        write_atomic(tmp_path / "b.bin", b"\x00\xff")
        assert path.read_bytes() == "new \u00e9\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]

    def test_write_failing_partway_keeps_the_old_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "a.txt"
        path.write_bytes(b"old")
        with pytest.raises(UnicodeEncodeError):  # the temporary file is open by then
            write_atomic(path, "new \ud800")

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("conet.data.os.replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_atomic(path, "new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


# JSON values as the artifacts hold them, with the scalars that need care.
JSON_SCALAR = (st.none() | st.booleans() | st.text() | st.integers(-2 ** 70, 2 ** 70)
               | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]))
JSON_KEY = st.text() | st.text(alphabet='a"\\\u00e9\u2603\n\x7f', max_size=4)
JSON_VALUE = st.recursive(JSON_SCALAR, lambda inner: st.lists(inner, max_size=4)
                          | st.lists(inner, max_size=4).map(tuple)
                          | st.dictionaries(JSON_KEY, inner, max_size=4), max_leaves=24)


class TestWriteJson:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(obj=JSON_VALUE)
    @example(obj={'say "hi"': {"\u00e9\u2603": [2 ** 64, -2 ** 63 - 1, -0.0, float("nan"),
                                                float("inf"), float("-inf"), True, None, ""]},
                  "empty": [{}, [], (), {"": ()}], "tuple": (1, (2.5, "x"))})
    def test_writes_what_the_stdlib_writes(self, tmp_path, obj):
        path = tmp_path / "out.json"
        write_json(path, obj)
        assert path.read_bytes() == (json.dumps(obj, indent=1) + "\n").encode("ascii")


class TestReduceTraining:
    def test_zero_removal_is_identity(self):
        split = loo_split(small_cross_domain(), derive_rng(0, "split"))
        reduced = reduce_training(split, 0, derive_rng(0, "r"))
        assert reduced is split
        assert same_interactions(reduced.train.target, split.train.target)

    def test_floor_of_one_interaction(self):
        data = CrossDomainDataset(
            target=make_dataset([[0], [1, 2, 3, 4]], 120),
            source=make_dataset([[0], [1]], 80),
        )
        split = loo_split(data, derive_rng(0, "split"))
        reduced = reduce_training(split, 10, derive_rng(0, "r"))
        for u in range(2):
            assert reduced.train.target.items_of(u).size >= 1

    def test_counts_and_untouched_holdouts(self):
        split = loo_split(small_cross_domain(num_users=20), derive_rng(1, "split"))
        before = split.train.target.num_interactions
        reduced = reduce_training(split, 1, derive_rng(1, "r"))
        assert split.train.target.num_interactions == before
        assert reduced.train.target.num_interactions == before - 20
        assert same_held_out(reduced, split)

    def test_shares_held_out_arrays(self):
        split = loo_split(small_cross_domain(num_users=20), derive_rng(1, "split"))
        reduced = reduce_training(split, 1, derive_rng(1, "r"))
        assert reduced.train.target.num_interactions < split.train.target.num_interactions
        for name in HELD_OUT:
            assert getattr(reduced, name) is getattr(split, name)

    def test_deterministic(self):
        split = loo_split(small_cross_domain(), derive_rng(2, "split"))
        a = reduce_training(split, 2, derive_rng(5, "r"))
        b = reduce_training(split, 2, derive_rng(5, "r"))
        assert same_interactions(a.train.target, b.train.target)


class TestSplitManifest:
    def test_round_trip(self, tmp_path):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(3, "split"))
        path = tmp_path / "split.json"
        save_split_manifest(split, path)
        again = load_split_manifest(data, path)
        assert same_held_out(again, split)
        assert same_interactions(again.train.target, split.train.target)

    def test_rejects_wrong_dataset(self, tmp_path):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(3, "split"))
        path = tmp_path / "split.json"
        save_split_manifest(split, path)
        other = small_cross_domain(num_users=11)
        with pytest.raises(DataError):
            load_split_manifest(other, path)

    @pytest.mark.parametrize("case", [
        "sentinel_negative", "duplicate_negative", "missing_test_key",
        "negative_out_of_range", "float_negative", "short_negatives",
        "user_out_of_range", "same_item_held_twice", "held_item_not_interacted",
        "interacted_negative", "not_json", "no_users", "zero_padded_user", "spaced_user",
        "repeated_user", "huge_user", "zero_padded_everywhere", "listed_partition",
    ])
    def test_rejects_malformed_manifest(self, tmp_path, case):
        data = small_cross_domain()
        split = loo_split(data, derive_rng(3, "split"))
        path = tmp_path / "split.json"
        save_split_manifest(split, path)
        manifest = json.loads(path.read_text())
        user = sorted(manifest["test"])[0]
        negs = manifest["eval_negatives"][user]
        held = manifest["test"][user]
        if case == "sentinel_negative":
            negs[5] = -1
        elif case == "duplicate_negative":
            negs[5] = negs[6]
        elif case == "missing_test_key":
            del manifest["test"]
        elif case == "negative_out_of_range":
            negs[0] = data.target.num_items
        elif case == "float_negative":
            negs[0] = negs[0] + 0.5
        elif case == "short_negatives":
            negs.pop()
        elif case == "user_out_of_range":
            for key in ("test", "validation", "eval_negatives"):
                manifest[key][str(data.num_users)] = manifest[key].pop(user)
        elif case == "same_item_held_twice":
            manifest["validation"][user] = held
        elif case == "held_item_not_interacted":
            manifest["test"][user] = negs[0]
        elif case == "interacted_negative":
            negs[0] = held
        elif case == "no_users":
            for key in ("test", "validation", "eval_negatives"):
                manifest[key] = {}
        elif case == "huge_user":  # an index beyond int64, in every partition
            for key in ("test", "validation", "eval_negatives"):
                manifest[key][str(10 ** 20)] = manifest[key].pop(user)
        elif case == "zero_padded_everywhere":  # partitions agree, so the key itself is refused
            for key in ("test", "validation", "eval_negatives"):
                manifest[key]["0" + user] = manifest[key].pop(user)
        elif case == "listed_partition":
            manifest["test"] = list(manifest["test"].values())
        elif case in ("zero_padded_user", "spaced_user"):
            alias = "0" + user if case == "zero_padded_user" else f" {user}"
            manifest["validation"][alias] = manifest["validation"].pop(user)
        text = json.dumps(manifest) if case != "not_json" else "{not json"
        if case == "repeated_user":  # json.dumps cannot repeat a key
            text = text.replace('"test": {', f'"test": {{"{user}": {held}, ', 1)
        path.write_text(text)
        problem = {"zero_padded_everywhere": "is not written as an index",
                   "listed_partition": "partitions must map user indices"}.get(case)
        with pytest.raises(DataError, match=problem):
            load_split_manifest(data, path)

    @pytest.mark.parametrize("partition", ["test", "validation", "eval_negatives"])
    def test_rejects_json_booleans(self, tmp_path, partition):
        # numpy reads a true among integers as 1: the manifest loads with
        # the integer 0 or 1 in one place, and is refused with the boolean.
        # Odd users hold items 0 and 1, even users neither.
        data = CrossDomainDataset(
            target=make_dataset([[0, 1, 10 + u, 30 + u] if u % 2 else [10 + u, 30 + u, 50 + u]
                                 for u in range(12)], 120),
            source=make_dataset([[u % 5] for u in range(12)], 5))
        split = loo_split(data, derive_rng(3, "split"))
        path = tmp_path / "split.json"
        save_split_manifest(split, path)
        manifest = json.loads(path.read_text())
        block = manifest[partition]
        user, value = next(
            (u, v) for u in split.users.tolist() for v in (0, 1)
            if (not has(data.target, u, v) and v not in block[str(u)]
                if partition == "eval_negatives" else has(split.train.target, u, v)))
        for item in (value, bool(value)):
            if partition == "eval_negatives":
                block[str(user)][0] = item
            else:
                block[str(user)] = item
            path.write_text(json.dumps(manifest))
            if type(item) is int:
                load_split_manifest(data, path)
        with pytest.raises(DataError, match="integer"):
            load_split_manifest(data, path)


def reference_splits():
    """Splits of several seeds and sizes, the acceptance data among them."""
    yield "small", small_cross_domain(), 0
    yield "wide", small_cross_domain(num_users=30, per_user_target=40, n_target=300), 5
    yield "acceptance", generate_synthetic(SyntheticConfig(seed=1)), 1
    for seed in (2, 7, 11):
        yield "small", small_cross_domain(per_user_target=3 + seed % 4), seed


class TestSplitAgainstReferences:
    """``loo_split`` draws and manifest bytes against the per-user references."""

    @pytest.mark.parametrize("name, data, seed", list(reference_splits()))
    def test_draws_and_manifest_bytes(self, tmp_path, name, data, seed):
        split = loo_split(data, derive_rng(seed, "split"))
        test, validation, negatives = reference_loo_draws(data, derive_rng(seed, "split"))
        assert held_by_user(split, "test") == test
        assert held_by_user(split, "validation") == validation
        assert split.users.tolist() == list(negatives)
        assert split.eval_negatives.dtype == np.int64
        for row, negs in zip(split.eval_negatives, negatives.values()):
            assert np.array_equal(row, negs)
        path = tmp_path / "split.json"
        save_split_manifest(split, path)
        assert path.read_bytes() == reference_manifest_text(split).encode("utf-8")

    def test_no_evaluated_users(self):
        # A split with no user to rank could give no metric; it is refused.
        data = CrossDomainDataset(target=make_dataset([[0, 1], [2]], 120),
                                  source=make_dataset([[0], [1]], 5))
        with pytest.raises(DataError, match="no evaluated users"):
            loo_split(data, derive_rng(0, "split"))
