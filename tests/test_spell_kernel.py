"""The scoring kernel against its executable spec, and on ragged compendia.

``textbook_search`` is the per-dataset loop the index ran before its
kernel was vectorised across datasets (weigh -> matmul -> clip -> mean ->
scatter-add), kept here — in the tests, not in ``src/`` — as the
specification the one shared kernel is held to: same gene order, same
dataset order, same weights, same score *bits*.

Every other synthetic compendium in the suite is rectangular (same genes
x same condition count per dataset), which is the case a
dataset-vectorised kernel handles trivially, so the property test here
drives it over compendia where everything the stacking relies on varies:
condition counts, gene subsets (0 / 1 / some / all query genes present
per dataset), shard dtype, dataset filters, a late dataset that grows
the universe under ``updated()``, and a removed one whose genes leave it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Compendium, Dataset, ExpressionMatrix
from repro.spell import BatchQuery, SpellIndex
from repro.spell.engine import MIN_QUERY_PRESENT
from repro.spell.partials import GeneUniverse
from repro.stats.correlation import fisher_z
from repro.synth import make_spell_compendium


def textbook_search(shards, query):
    """SPELL over ``(name, gene_ids, unit-row matrix)`` shards, one dataset
    at a time.  Returns ``(gene rows, dataset rows)`` with scores and
    weights as hex strings, so equality means equal bits."""
    universe = sorted({g for _, gene_ids, _ in shards for g in gene_ids})
    slot = {g: i for i, g in enumerate(universe)}
    totals = np.zeros(len(universe))
    weight_mass = np.zeros(len(universe))
    counts = np.zeros(len(universe), dtype=np.intp)
    dataset_rows = []
    for name, gene_ids, Xn in shards:
        pos = {g: i for i, g in enumerate(gene_ids)}
        rows = np.asarray([pos[g] for g in query if g in pos], dtype=np.intp)
        weight = 0.0
        if rows.shape[0] >= MIN_QUERY_PRESENT:
            Q = Xn[rows]
            qcorr = np.clip(Q @ Q.T, -1.0, 1.0)
            iu = np.triu_indices(rows.shape[0], k=1)
            mean_r = float(np.tanh(np.mean(fisher_z(qcorr[iu]))))
            weight = max(0.0, mean_r) ** 2
        dataset_rows.append((name, weight, int(rows.shape[0])))
        if weight <= 0.0:
            continue
        scores = np.clip(Xn @ Q.T, -1.0, 1.0).mean(axis=1, dtype=np.float64)
        slots = np.asarray([slot[g] for g in gene_ids], dtype=np.intp)
        totals[slots] += weight * scores
        weight_mass[slots] += weight
        counts[slots] += 1
    dataset_rows.sort(key=lambda d: (-d[1], d[0]))
    genes = [
        (universe[i], float(totals[i] / weight_mass[i]), int(counts[i]))
        for i in np.flatnonzero(counts)
        if universe[i] not in query
    ]
    genes.sort(key=lambda g: (-g[1], g[0]))
    return (
        [(g, s.hex(), n) for g, s, n in genes],
        [(name, w.hex(), n) for name, w, n in dataset_rows],
    )


def shards_of(index, names=None):
    return [
        (e.name, e.gene_ids, e.normalized)
        for e in index._entries
        if names is None or e.name in names
    ]


def rows_of(result):
    return (
        [(g.gene_id, float(g.score).hex(), int(g.n_datasets)) for g in result.genes],
        [(d.name, float(d.weight).hex(), int(d.n_query_present)) for d in result.datasets],
    )


# ------------------------------------------------------------ executable spec
@pytest.fixture(scope="module")
def fig4():
    """The FIG4 compendium every recorded number uses."""
    return make_spell_compendium(
        n_datasets=40, n_relevant=8, n_genes=600, n_conditions=20,
        module_size=30, query_size=5, seed=424,
    )


def fig4_queries(comp, truth, size):
    """A planted-module query (coherent: relevant datasets weigh in) and
    two random ones (about half the datasets weigh in, with small weights)."""
    rng = np.random.default_rng(size)
    universe = sorted(comp.gene_universe())
    yield list(truth.module_genes[:size])
    for _ in range(2):
        yield rng.choice(universe, size=size, replace=False).tolist()


class TestExecutableSpec:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_kernel_reproduces_textbook_loop_bitwise(self, fig4, size, dtype):
        comp, truth = fig4
        index = SpellIndex.build(comp, dtype=dtype)
        for query in fig4_queries(comp, truth, size):
            expected = textbook_search(shards_of(index), query)
            assert any(float.fromhex(w) > 0 for _, w, _ in expected[1])
            assert rows_of(index.search(query)) == expected
            head = index.search(query, top_k=25)
            assert rows_of(head)[0] == expected[0][:25]

    def test_from_eight_query_genes_the_score_mean_is_the_kernels_own(self, fig4):
        """The one reduction that is not numpy's: the kernel averages a
        gene's ``q`` correlations left to right, which is ``mean(axis=1)``
        bit for bit below 8 terms (numpy's pairwise sum is a plain loop
        there) but not from 8 up, where numpy sums in 8 lanes.  Weights
        (the pair mean) stay bitwise; each per-dataset score mean is a sum
        of ``q`` terms of magnitude <= 1 taken in two orders, so it moves
        by at most ``2 (q - 1) (eps / 2) q / q`` and the weighted mean of
        those by no more — bounded here at ``q * eps``, set from the dtype
        and the term count, not from what the run happened to produce."""
        comp, truth = fig4
        index = SpellIndex.build(comp)
        q = 9
        query = list(truth.module_genes[:q])
        genes, datasets = rows_of(index.search(query))
        ref_genes, ref_datasets = textbook_search(shards_of(index), query)
        assert datasets == ref_datasets
        assert [(g, n) for g, _, n in genes] == [(g, n) for g, _, n in ref_genes]
        drift = max(
            abs(float.fromhex(a) - float.fromhex(b))
            for (_, a, _), (_, b, _) in zip(genes, ref_genes)
        )
        assert drift <= q * np.finfo(np.float64).eps


# --------------------------------------------------------------- ragged oracle
def ragged_datasets(rng, n_datasets):
    """Datasets with their own condition counts and their own gene subsets
    of a 30-gene universe, ~10 % missing values, the odd flat row."""
    universe = [f"G{i:02d}" for i in range(30)]
    datasets = []
    for d in range(n_datasets):
        genes = rng.choice(universe, size=int(rng.integers(4, 26)), replace=False).tolist()
        n_cond = int(rng.integers(4, 12))
        values = rng.normal(size=(len(genes), n_cond))
        values[: len(genes) // 2] += rng.normal(size=n_cond)  # some real coherence
        values[rng.random(values.shape) < 0.1] = np.nan
        if rng.random() < 0.3:
            values[-1] = 1.0  # zero variance: an all-zero unit row
        matrix = ExpressionMatrix(values, genes, [f"c{j}" for j in range(n_cond)])
        datasets.append(Dataset(name=f"ds{d}", matrix=matrix))
    return datasets


def merged_over_split(live, dtype, query, names):
    """The sharded path: partials from a 2-way dataset split, merged by the
    coordinator's metadata-only universe."""
    universe = GeneUniverse([(ds.name, ds.gene_ids) for ds in live])
    selected = [ds.name for ds in live if names is None or ds.name in names]
    contributions = {}
    half = len(live) // 2
    for part in (live[:half], live[half:]):
        owned = [ds.name for ds in part if ds.name in selected]
        if owned:
            shard = SpellIndex.build(Compendium(part), dtype=dtype)
            for partial in shard.search_partials(query, datasets=owned):
                contributions[partial.name] = partial
    query_used, query_missing, q_slots = universe.resolve_query(
        query, selected, filtered=names is not None
    )
    return universe.merge(query, query_used, query_missing, q_slots, selected, contributions)


class TestRaggedOracle:
    @given(
        seed=st.integers(0, 10_000),
        n_datasets=st.integers(3, 7),
        dtype=st.sampled_from([np.float64, np.float32]),
        remove_first=st.booleans(),
        filtered=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_path_agrees_bitwise_with_the_textbook_loop(
        self, seed, n_datasets, dtype, remove_first, filtered
    ):
        rng = np.random.default_rng(seed)
        datasets = ragged_datasets(rng, n_datasets)
        # the late shard brings genes no earlier shard has, so the universe
        # (and the slot -> row table) must grow under updated()
        late = datasets[-1]
        late_genes = list(late.matrix.gene_ids) + ["LATE0", "LATE1"]
        extra = rng.normal(size=(2, late.matrix.n_conditions))
        datasets[-1] = Dataset(
            name=late.name,
            matrix=ExpressionMatrix(
                np.vstack([late.matrix.values, extra]),
                late_genes,
                list(late.matrix.condition_names),
            ),
        )
        index = SpellIndex.build(Compendium(datasets[:-1]), dtype=dtype)
        index = index.updated(Compendium(datasets))
        live = list(datasets)
        if remove_first:
            del live[0]  # the genes only it held leave the universe
            index = index.updated(Compendium(live))

        names = None
        if filtered:
            keep = rng.random(len(live)) < 0.6
            keep[int(rng.integers(len(live)))] = True
            names = [ds.name for ds, k in zip(live, keep) if k]
        selected = [ds for ds in live if names is None or ds.name in names]
        reachable = sorted({g for ds in selected for g in ds.gene_ids})
        anywhere = sorted({g for ds in datasets for g in ds.gene_ids})

        queries = []
        for _ in range(3):
            size = int(rng.integers(2, 7))
            # at least one gene the selected shards hold; the rest from
            # anywhere — other shards, the removed dataset, the late genes
            query = [str(rng.choice(reachable))]
            pool = [g for g in anywhere if g != query[0]]
            query += rng.choice(pool, size=min(size - 1, len(pool)), replace=False).tolist()
            rng.shuffle(query)
            queries.append(query)

        shards = shards_of(index, names)
        batch = index.search_batch([BatchQuery(tuple(q), None, names) for q in queries])
        for query, member in zip(queries, batch):
            expected = textbook_search(shards, query)
            single = index.search(query, datasets=names)
            assert rows_of(single) == expected
            assert rows_of(member) == expected
            assert rows_of(merged_over_split(live, dtype, query, names)) == expected
            assert single.query_missing == member.query_missing
            assert set(single.query_missing) == set(query) - set(reachable)


# ------------------------------------------------------------- batched kernel
def assert_matches_textbook(got, expected, query_size):
    """Bitwise below 8 query genes; from 8 up the per-dataset score mean is
    the kernel's own order (see ``TestExecutableSpec``), so weights stay
    bitwise and each gene's score moves by at most ``q * eps``."""
    (genes, datasets), (ref_genes, ref_datasets) = got, expected
    assert datasets == ref_datasets
    if query_size < 8:
        assert genes == ref_genes
        return
    reference = {g: (float.fromhex(s), n) for g, s, n in ref_genes}
    assert len(genes) == len(reference)
    for g, s, n in genes:
        ref_score, ref_n = reference[g]
        assert n == ref_n
        assert abs(float.fromhex(s) - ref_score) <= query_size * np.finfo(np.float64).eps


def merged_from_partials(index, universe, spec):
    """``search_partials`` of one index, merged the coordinator's way."""
    names = index.dataset_names if spec.datasets is None else list(spec.datasets)
    selected = [n for n in index.dataset_names if n in names]
    contributions = {
        part.name: part
        for part in index.search_partials(list(spec.genes), datasets=spec.datasets)
    }
    query_used, query_missing, q_slots = universe.resolve_query(
        list(spec.genes), selected, filtered=spec.datasets is not None
    )
    return universe.merge(
        list(spec.genes), query_used, query_missing, q_slots, selected,
        contributions, top_k=spec.top_k,
    )


class TestBatchedKernel:
    """A batch goes through the kernel in blocks of stacked members; every
    member is held to the same spec as a lone ``search``.  The arena
    layout decides the kernel's runs: a fused index is runs of equal-shape
    shards, an mmap store runs of one, an appended index an old run plus
    a separate shard."""

    @given(
        seed=st.integers(0, 10_000),
        n_datasets=st.integers(3, 7),
        length=st.sampled_from([1, 2, 3, 8, 17, 33, 70]),
        dtype=st.sampled_from([np.float64, np.float32]),
        ragged=st.booleans(),
        rectangular=st.booleans(),
        layout=st.sampled_from(["fused", "mmap", "appended"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_member_equals_search_and_the_textbook_loop_bitwise(
        self, seed, n_datasets, length, dtype, ragged, rectangular, layout, tmp_path_factory
    ):
        rng = np.random.default_rng(seed)
        datasets = ragged_datasets(rng, n_datasets)
        if rectangular or not ragged:
            # every dataset holds every gene (its own condition count, or
            # under ``rectangular`` the first one's), so members of one
            # query size stack whatever their genes; rectangular shards
            # are one run in a fused arena
            shapes = [(datasets[0] if rectangular else ds).matrix for ds in datasets]
            datasets = [
                Dataset(
                    name=ds.name,
                    matrix=ExpressionMatrix(
                        rng.normal(size=(30, shape.n_conditions)),
                        [f"G{i:02d}" for i in range(30)],
                        list(shape.condition_names),
                    ),
                )
                for ds, shape in zip(datasets, shapes)
            ]
        if layout == "appended":
            index = SpellIndex.build(Compendium(datasets[:-1]), dtype=dtype)
            index = index.updated(Compendium(datasets))
        else:
            index = SpellIndex.build(Compendium(datasets), dtype=dtype)
        if layout == "mmap":
            from repro.spell import IndexStore

            store = tmp_path_factory.mktemp("kernel-store")
            IndexStore.save(index, store)
            index = IndexStore.load(store, mmap=True)
            assert not index._arena.fused
            assert not any(index._arena.continues)
        elif rectangular:
            assert index._arena.continues == (
                [False] + [True] * (n_datasets - 2) + [layout == "fused"]
            )
        universe = GeneUniverse([(ds.name, ds.gene_ids) for ds in datasets])
        names = [ds.name for ds in datasets]
        filters = [None, None] + [
            tuple(rng.choice(names, size=int(rng.integers(1, len(names) + 1)), replace=False))
            for _ in range(2)
        ]

        # fewer distinct members than batch slots: repeats ride in every
        # long batch, and what each must equal is worked out once
        specs = []
        for _ in range(min(length, 12)):
            chosen = filters[int(rng.integers(len(filters)))]
            reachable = sorted(
                {g for ds in datasets if chosen is None or ds.name in chosen for g in ds.gene_ids}
            )
            size = int(rng.integers(2, 10))  # 2..9: both sides of the 8-lane rule
            genes = [str(rng.choice(reachable))]
            pool = [f"G{i:02d}" for i in range(30) if f"G{i:02d}" != genes[0]]
            genes += rng.choice(pool, size=size - 1, replace=False).tolist()
            rng.shuffle(genes)
            top_k = [None, None, 5, 1000][int(rng.integers(4))]
            specs.append(BatchQuery(tuple(genes), top_k, chosen))
        expected = {}
        for spec in specs:
            single = index.search(list(spec.genes), top_k=spec.top_k, datasets=spec.datasets)
            genes, dataset_rows = textbook_search(shards_of(index, spec.datasets), spec.genes)
            assert_matches_textbook(
                rows_of(single), (genes[: spec.top_k], dataset_rows), len(spec.genes)
            )
            assert rows_of(merged_from_partials(index, universe, spec)) == rows_of(single)
            expected[spec] = single

        members = [specs[i] for i in rng.integers(len(specs), size=length)]
        for spec, member in zip(members, index.search_batch(members)):
            single = expected[spec]
            assert rows_of(member) == rows_of(single)
            assert member.total_genes == single.total_genes
            assert (member.query, member.query_used, member.query_missing) == (
                single.query, single.query_used, single.query_missing
            )

    def test_members_stack_on_counts_not_on_which_genes(self):
        """Two queries holding the same *number* of genes in every dataset
        share a block even when the genes present differ — the gather
        squeezes each member's absent genes out on its own."""
        genes = [f"G{i}" for i in range(8)]

        def dataset(name, held, seed):
            values = np.random.default_rng(seed).normal(size=(len(held), 6))
            return Dataset(name=name, matrix=ExpressionMatrix(values, held, list("abcdef")))

        index = SpellIndex.build(Compendium([
            dataset("full", genes, 1),
            dataset("evens", genes[0::2] + ["G7"], 2),
            dataset("odds", genes[1::2] + ["G0"], 3),
        ]))
        members = [("G0", "G1", "G2"), ("G3", "G2", "G7"), ("G0", "G2", "G4")]
        seen = []
        score = index._score
        index._score = lambda selected, local, *rest: (
            seen.append(local.shape) or score(selected, local, *rest)
        )
        batch = index.search_batch(members)
        # the first two hold (3, 2, 2) genes in (full, evens, odds), the
        # third (3, 3, 1): one block of two members, one of one
        assert seen == [(3, 2, 3), (3, 1, 3)]
        del index._score
        for query, member in zip(members, batch):
            assert rows_of(member) == rows_of(index.search(list(query)))
            assert rows_of(member) == textbook_search(shards_of(index), query)

    def test_workspace_is_set_by_the_block_not_by_the_batch(self, fig4):
        from repro.spell.index import BLOCK_COLUMNS

        comp, truth = fig4
        query = tuple(truth.module_genes[:4])

        def workspace(index, n_members):
            index.search_batch([query] * n_members)
            scratch = index._scratch.acquire()
            index._scratch.release(scratch)
            return scratch.nbytes()

        index = SpellIndex.build(comp)
        one_block = workspace(index, BLOCK_COLUMNS // len(query))
        assert workspace(index, 500) == one_block
        assert 0 < workspace(SpellIndex.build(comp), 1) < one_block


# ------------------------------------------------------------- kernel's shape
def matmul_calls(index, query, monkeypatch):
    """How many times one lone ``search`` calls ``np.matmul``, and its
    dataset rows ``(name, weight, query genes held)``."""
    calls = []
    matmul = np.matmul

    def counted(*args, **kwargs):
        calls.append(None)
        return matmul(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", counted)
        result = index.search(query)
    return len(calls), [(d.name, d.weight, d.n_query_present) for d in result.datasets]


class TestKernelShape:
    """Count lock on the kernel's BLAS calls: a run of arena shards is one
    stacked Gram and one score matmul, whatever its length, and a run of
    one is the per-dataset step (one Gram per dataset holding enough query
    genes, one score matmul per dataset weighing the query positively)."""

    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_a_fused_index_is_one_run(self, fig4, size, monkeypatch):
        comp, truth = fig4
        index = SpellIndex.build(comp)
        assert index._arena.continues == [False] + [True] * (len(comp) - 1)
        for query in fig4_queries(comp, truth, size):
            calls, datasets = matmul_calls(index, query, monkeypatch)
            assert any(w > 0 for _, w, _ in datasets)
            assert calls == 2

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_mmap_shards_are_runs_of_one(self, fig4, size, monkeypatch, tmp_path):
        from repro.spell import IndexStore

        comp, truth = fig4
        IndexStore.save(SpellIndex.build(comp), tmp_path)
        index = IndexStore.load(tmp_path, mmap=True)
        assert not any(index._arena.continues)
        for query in fig4_queries(comp, truth, size):
            calls, datasets = matmul_calls(index, query, monkeypatch)
            grams = sum(n >= MIN_QUERY_PRESENT for _, _, n in datasets)
            scores = sum(w > 0 for _, w, _ in datasets)
            assert scores and calls == grams + scores

    def test_an_appended_shard_is_its_own_run(self, fig4, monkeypatch):
        comp, truth = fig4
        datasets = list(comp)
        index = SpellIndex.build(Compendium(datasets[:-1])).updated(comp)
        assert index._arena.continues == [False] + [True] * (len(comp) - 2) + [False]
        last = datasets[-1].name
        for query in fig4_queries(comp, truth, 4):
            calls, rows = matmul_calls(index, query, monkeypatch)
            assert any(weight > 0 for name, weight, _ in rows if name != last)
            ((_, w, n),) = [row for row in rows if row[0] == last]
            assert calls == 2 + (n >= MIN_QUERY_PRESENT) + (w > 0)
