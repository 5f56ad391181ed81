import errno
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multifuse import parallel, pipeline, sma, snf
from multifuse.errors import (
    DegenerateSpectrum,
    DimensionError,
    EmptyAfterFilter,
    EmptyTable,
    InvalidInput,
    InvalidParameter,
    ParseError,
    SingularMatrix,
)
from multifuse.netanalysis import Partition, louvain_communities
from multifuse.pipeline import (
    WEIGHT_MODES,
    PipelineConfig,
    dumps_json17,
    export_graph,
    filter_entities,
    fmt17,
    load_abundance_tables,
    load_similarity_csv,
    run_pipeline,
    write_similarity_csv,
)
from multifuse.simbuild import FeatureTable, SimilarityLayer
from multifuse.sma import rv_matrix, uniform_weights, weights_frobenius, weights_rowsum
from oracles import export_graph_reference, similarity_csv_reference

DATA = Path(__file__).parent / "data" / "synthetic"


def write_csv(path, text):
    path.write_text(text)
    return str(path)


class TestLoad:
    def test_union_semantics(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", "entity,s1\nx,1.0\ny,2.0\n")
        b = write_csv(tmp_path / "b.csv", "entity,s1,s2\ny,1.0,0.5\nz,0.0,3.0\n")
        tables = load_abundance_tables([a, b])
        assert [t.name for t in tables] == ["a", "b"]
        assert tables[0].labels == ("x", "y", "z")
        assert tables[1].labels == ("x", "y", "z")
        # entity only in file a appears as a zero row in b
        assert np.array_equal(tables[1].rows[0], [0.0, 0.0])
        assert np.array_equal(tables[0].rows[2], [0.0])

    def test_no_files(self):
        with pytest.raises(InvalidInput, match="no input files"):
            load_abundance_tables([])

    def test_header_only_is_empty_table(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "entity,s1\n")
        with pytest.raises(EmptyTable):
            load_abundance_tables([p])

    def test_duplicate_entity(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "entity,s1\nx,1.0\nx,2.0\n")
        with pytest.raises(ParseError, match="a.csv:3"):
            load_abundance_tables([p])

    def test_negative_value(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "entity,s1\nx,-1.0\n")
        with pytest.raises(ParseError, match="a.csv:2"):
            load_abundance_tables([p])

    def test_malformed_row(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "entity,s1,s2\nx,1.0\n")
        with pytest.raises(ParseError, match="a.csv:2"):
            load_abundance_tables([p])

    def test_non_numeric_cell(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "entity,s1\nx,abc\n")
        with pytest.raises(ParseError, match="not a number"):
            load_abundance_tables([p])

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell(self, tmp_path, cell):
        p = write_csv(tmp_path / "a.csv", f"entity,s1,s2\nx,1.0,0.5\ny,0.2,{cell}\nz,0.1,0.1\n")
        with pytest.raises(ParseError, match=f"a.csv:3: non-finite value '{cell}'"):
            load_abundance_tables([p])

    def test_error_names_file_line_after_multiline_id(self, tmp_path):
        # the quoted id spans lines 2-3, so the bad cell is on line 4
        p = write_csv(tmp_path / "a.csv", 'entity,s1\n"a\nb",1.0\nc,abc\n')
        with pytest.raises(ParseError, match="a.csv:4: not a number: 'abc'"):
            load_abundance_tables([p])

    @pytest.mark.parametrize("load", [load_abundance_tables, load_similarity_csv])
    def test_unclosed_quote_past_field_limit(self, tmp_path, load):
        # the quote opened on line 2 makes the rest of the file one field,
        # longer than the csv module's field size limit
        p = write_csv(tmp_path / "a.csv", 'entity,s1\n"x,' + "1" * 140_000 + "\n")
        with pytest.raises(ParseError, match="a.csv:2: field larger than field limit"):
            load([p] if load is load_abundance_tables else p)


@st.composite
def layer_id_sets(draw):
    """Two to four layers, each a few entity ids from a shared pool with 0/positive rows."""
    pool = [f"e{i}" for i in range(8)]
    layers = []
    for _ in range(draw(st.integers(2, 4))):
        ids = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
        sites = draw(st.integers(1, 3))
        cell = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.25])
        rows = draw(st.lists(st.lists(cell, min_size=sites, max_size=sites),
                             min_size=len(ids), max_size=len(ids)))
        layers.append(dict(zip(ids, rows)))
    return layers


class TestAlignAndFilterMatchDictReference:
    """Union alignment and the two-pass filter against a plain-dict reference."""

    @settings(deadline=None, max_examples=80)
    @given(layers=layer_id_sets())
    def test_random_id_sets(self, tmp_path_factory, layers):
        root = tmp_path_factory.mktemp("in")
        paths = []
        for l, rows in enumerate(layers):
            sites = len(next(iter(rows.values())))
            text = "entity," + ",".join(f"s{j}" for j in range(sites)) + "\n"
            text += "".join(e + "," + ",".join(map(repr, r)) + "\n" for e, r in rows.items())
            paths.append(write_csv(root / f"l{l}.csv", text))
        universe = sorted(set().union(*layers))
        tables = load_abundance_tables(paths)
        for t, rows in zip(tables, layers):
            assert t.labels == tuple(universe)
            zero = [0.0] * t.rows.shape[1]
            assert t.rows.tolist() == [rows.get(e, zero) for e in universe]

        names = [f"l{l}" for l in range(len(layers))]
        absent = {e: [n for n, rows in zip(names, layers) if sum(rows.get(e, [0.0])) == 0]
                  for e in universe}
        everywhere = tuple(e for e in universe if len(absent[e]) == len(layers))
        partial = tuple((e, tuple(absent[e])) for e in universe if 0 < len(absent[e]) < len(layers))
        retained = tuple(e for e in universe if not absent[e])
        if not retained:
            with pytest.raises(EmptyAfterFilter):
                filter_entities(tables)
            return
        filtered, log = filter_entities(tables)
        assert (log.total, log.removed_everywhere, log.removed_partial, log.retained) == (
            len(universe), everywhere, partial, retained)
        for t, rows in zip(filtered, layers):
            assert t.labels == retained
            assert t.rows.tolist() == [rows[e] for e in retained]


class TestFilter:
    def make(self, name, ids, values):
        return FeatureTable(ids, values, name)

    def test_two_pass_filtering(self):
        ids = ("a", "b", "c", "d")
        t1 = self.make("l1", ids, [[1.0, 2.0], [0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        t2 = self.make("l2", ids, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
        filtered, log = filter_entities([t1, t2])
        assert log.removed_everywhere == ("b",)          # zero in every layer
        assert log.removed_partial == (("c", ("l2",)),)  # zero in one layer
        assert log.retained == ("a", "d")
        assert log.total - len(log.removed_everywhere) - len(log.removed_partial) == len(log.retained)
        assert filtered[0].labels == ("a", "d")
        assert np.array_equal(filtered[1].rows, [[1.0, 1.0], [2.0, 0.0]])

    def test_rejects_no_tables_and_unaligned_tables(self):
        with pytest.raises(InvalidInput, match="no tables"):
            filter_entities([])
        a, b = self.make("l0", ("a", "b"), [[1.0], [1.0]]), self.make("l1", ("a", "c"), [[1.0], [1.0]])
        with pytest.raises(InvalidInput, match="one entity universe"):
            filter_entities([a, b])

    def test_all_removed(self):
        t = self.make("l1", ("a",), [[0.0]])
        with pytest.raises(EmptyAfterFilter):
            filter_entities([t])

    @pytest.mark.parametrize(
        "ids, values, message",
        [(("a", "b"), [[1.0], [-1.0]], "layer l1: negative values"),
         (("a", "a"), [[1.0], [2.0]], "duplicate entity ids")],
        ids=["negative", "repeated-id"],
    )
    def test_rejects_tables_that_are_not_abundances(self, ids, values, message):
        good = self.make("l0", ids, [[1.0], [1.0]])
        with pytest.raises(InvalidInput, match=message):
            filter_entities([good, self.make("l1", ids, values)])


class TestDeterminism:
    """The README's Determinism section, end to end on the fixture."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reference")
        paths = sorted(str(p) for p in DATA.glob("*.csv"))
        run_pipeline(PipelineConfig(inputs=paths, output_dir=str(out)))
        return out

    @staticmethod
    def rewrite_fixture(root, rewrite):
        """Copy every fixture CSV to ``root`` with its data rows passed through ``rewrite``."""
        root.mkdir()
        for src in sorted(DATA.glob("*.csv")):
            header, *rows = src.read_text().splitlines()
            (root / src.name).write_text("\n".join([header, *rewrite(rows)]) + "\n")
        return sorted(str(p) for p in root.glob("*.csv"))

    def test_row_order_does_not_change_any_artifact(self, tmp_path, reference):
        rng = np.random.default_rng(0)
        paths = self.rewrite_fixture(tmp_path / "in", lambda rows: rng.permutation(rows).tolist())
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(inputs=paths, output_dir=str(out)))
        files = sorted(p.relative_to(reference) for p in reference.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for rel in files:
            assert (out / rel).read_bytes() == (reference / rel).read_bytes(), rel

    def test_relabelling_permutes_the_monoplexes(self, tmp_path, reference):
        rows = [line for p in DATA.glob("*.csv") for line in p.read_text().splitlines()[1:]]
        ids = sorted({r.split(",")[0] for r in rows})
        # new ids sort in the reverse order of the old ones
        new_id = {e: f"id{len(ids) - i:03d}" for i, e in enumerate(ids)}
        paths = self.rewrite_fixture(
            tmp_path / "in", lambda rows: [new_id[r.split(",")[0]] + r[r.index(","):] for r in rows]
        )
        out = tmp_path / "out"
        run_pipeline(PipelineConfig(inputs=paths, output_dir=str(out)))
        for method in pipeline.ALL_METHODS:
            before = load_similarity_csv(reference / f"monoplex_{method}.csv")
            after = load_similarity_csv(out / f"monoplex_{method}.csv")
            perm = [after.labels.index(new_id[lab]) for lab in before.labels]
            assert perm == list(range(before.n))[::-1]
            assert np.abs(after.S[np.ix_(perm, perm)] - before.S).max() <= 1e-12, method


class TestFormatting:
    def test_fmt17_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = float(rng.standard_normal() * 10.0 ** int(rng.integers(-8, 8)))
            assert float(fmt17(x)) == x

    def test_fmt17_negative_zero(self):
        assert fmt17(-0.0) == "0"

    def test_json_17_digits(self):
        text = dumps_json17({"x": 0.1, "y": [1, True, None, "s"]})
        assert "0.10000000000000001" in text
        assert json.loads(text) == {"x": 0.1, "y": [1, True, None, "s"]}

    def test_json_empty_list_and_unserializable_value(self):
        assert dumps_json17([]) == "[]"
        with pytest.raises(InvalidInput, match="cannot serialize object"):
            dumps_json17({"x": object()})


def decode17(chars):
    """The texts of ``_chars17``'s rows, each without its NUL padding."""
    return [x.decode("ascii") for x in chars.view(f"S{pipeline._WIDTH17}")[:, 0].tolist()]


def texts17(values):
    """What the array formatter renders each of ``values`` as."""
    return decode17(pipeline._chars17(np.asarray(values, dtype=float)))


def reference17(values):
    return [format(float(x) + 0.0, ".17g") for x in np.ravel(values)]


class TestArrayFormatter:
    """``_chars17`` gives exactly the texts of ``format(x, ".17g")``, with -0.0 as ``0``."""

    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @example(values=[-0.0, 0.0, 1.0])
    def test_floats_in_unit_interval(self, values):
        assert texts17(values) == reference17(values)

    @pytest.mark.parametrize("q", [18, 19, 20, 21])
    def test_half_way_ties(self, q):
        # odd m / 2**q has q decimals, the last one a 5; in [10**(17 - q), 10**(18 - q))
        # 17 significant digits keep q - 1 of them, so each value lies half way
        low, high = 2**q // 10 ** (q - 17) + 1, 2**q // 10 ** (q - 18)
        m = np.random.default_rng(q).integers(low // 2, high // 2, 5000) * 2 + 1
        values = m / 2.0**q
        assert values.min() >= 10.0 ** (17 - q) and values.max() < 10.0 ** (18 - q)
        assert texts17(values) == reference17(values)

    def test_neighbours_of_powers_of_ten(self):
        values = []
        for p in (1.0, 1e-1, 1e-2, 1e-3, 1e-4):
            below = above = p
            for _ in range(8):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 2.0)
                values += [below, above]
            values.append(p)
        assert texts17(values) == reference17(values)

    def test_values_outside_the_range(self):
        values = [np.nextafter(1e-4, 0.0), 9.9999e-5, 1e-300, 5e-324, 2.2250738585072014e-308,
                  1.5, 2.0, 1e300, -0.5, -1e-300, np.inf, -np.inf, np.nan]
        assert texts17(values) == reference17(values)
        assert texts17([5e-324]) == ["4.9406564584124654e-324"]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_uniform_and_log_uniform(self, seed):
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.random(300_000), 10.0 ** rng.uniform(-5.0, 0.0, 300_000)])
        assert texts17(values) == reference17(values)

    def test_matrix_with_every_value_outside_the_range(self, tmp_path):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.0, 1e-4, (6, 6)) * 10.0 ** rng.integers(-300, 0, (6, 6))
        layer = SimilarityLayer(tuple("abcdef"), (s + s.T) / 2)
        path = tmp_path / "m.csv"
        upper = write_similarity_csv(path, layer)
        assert path.read_bytes() == similarity_csv_reference(layer.labels, layer.S).encode("utf-8")
        assert decode17(upper) == reference17(layer.S[np.triu_indices(6)])

    def test_rbf_layer_over_several_row_blocks(self, tmp_path):
        # 401 rows are gathered in blocks of 163, so the last block is short
        assert pipeline._BLOCK_CELLS // 401 == 163
        rng = np.random.default_rng(4)
        table = FeatureTable([f"e{i}" for i in range(401)], rng.random((401, 7)))
        layer = pipeline.rbf_layer(table)[0]
        path = tmp_path / "m.csv"
        write_similarity_csv(path, layer)
        assert path.read_bytes() == similarity_csv_reference(layer.labels, layer.S).encode("utf-8")


class TestMatrixCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(20):
            s = rng.uniform(0.0, 1.0, (5, 5))
            s = (s + s.T) / 2
            np.fill_diagonal(s, 1.0)
            labels = tuple(f"n{j}" for j in range(5))
            path = tmp_path / f"m{i}.csv"
            write_similarity_csv(path, SimilarityLayer(labels, s))
            back = load_similarity_csv(path)
            assert back.labels == labels
            assert np.array_equal(back.S, s)

    def test_load_rejects_bad_shape(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", ",a,b\na,1.0,0.5\n")
        with pytest.raises(ParseError):
            load_similarity_csv(p)

    def test_error_names_file_line_after_blank_line(self, tmp_path):
        p = write_csv(tmp_path / "m.csv", ",a,b\n\na,1,0.5\nb,0.5,x\n")
        with pytest.raises(ParseError, match="m.csv:4: "):
            load_similarity_csv(p)

    def test_error_names_file_line_after_multiline_label(self, tmp_path):
        # the label "a\nb" spans two lines in the header and in its own row
        path = tmp_path / "m.csv"
        write_similarity_csv(path, SimilarityLayer(("a\nb", "c"), [[1.0, 0.5], [0.5, 1.0]]))
        text = path.read_text()
        assert text.splitlines()[4] == "c,0.5,1"
        path.write_text(text.replace("c,0.5,1", "c,0.5,x"))
        with pytest.raises(ParseError, match="m.csv:5: "):
            load_similarity_csv(path)


class TestExport:
    def layer(self):
        return SimilarityLayer(("a", "b"), [[1.0, 0.4], [0.4, 1.0]])

    def test_edge_list_minimal(self, tmp_path):
        out = tmp_path / "e.csv"
        export_graph(self.layer(), None, "edge-list", out)
        assert out.read_text() == "source,target,weight\na,b,0.40000000000000002\n"

    def test_edge_list_threshold(self, tmp_path):
        out = tmp_path / "e.csv"
        export_graph(self.layer(), None, "edge-list", out, threshold=0.5)
        assert out.read_text() == "source,target,weight\n"

    def test_graphml_has_communities(self, tmp_path):
        out = tmp_path / "g.graphml"
        part = Partition(("a", "b"), np.array([0, 1]), 0.0)
        export_graph(self.layer(), part, "graphml", out)
        text = out.read_text()
        assert 'attr.name="community"' in text
        assert "<data key=\"c\">1</data>" in text
        assert "0.40000000000000002" in text

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidParameter):
            export_graph(self.layer(), None, "dot", tmp_path / "x")

    def test_partition_over_other_labels(self, tmp_path):
        part = Partition(("a", "x"), np.array([0, 1]), 0.0)
        with pytest.raises(DimensionError, match="partition labels"):
            export_graph(self.layer(), part, "graphml", tmp_path / "g.graphml")
        assert not (tmp_path / "g.graphml").exists()


#: Label characters that need CSV quoting, XML escaping, or neither.
LABEL_CHARS = 'ab ,"&<>\t\r\n\0ü%'
TRICKY = ("a,b", 'q"q', "&<>", "t\tb", "c\rr", "n\nl", "spü1", "50%")
SPECIAL_VALUES = (0.0, -0.0, 0.1, 1e-300, 5e-324, 1.0 / 3.0, 1.0)
labels_st = st.lists(st.text(LABEL_CHARS, max_size=4), min_size=1, max_size=6, unique=True)


@st.composite
def networks(draw):
    """Labels, a symmetric [0, 1] matrix, a community vector or None, a threshold."""
    labels = draw(labels_st)
    n = len(labels)
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(0.0, 1.0))
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            s[i, j] = s[j, i] = draw(value)
    community = None
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        community = np.unique(raw, return_inverse=True)[1]
    # keep every edge, none, or those strictly above one of the weights
    threshold = draw(st.one_of(st.just(-1.0), st.just(1.0), st.sampled_from(s.ravel().tolist())))
    return labels, s, community, threshold


class TestMatrixCsvRoundTrip:
    """Matrix CSVs read back every label and value they were written with."""

    @settings(deadline=None, max_examples=100)
    @given(net=networks())
    @example(net=(["c\rr", "b"], np.array([[1.0, 0.5], [0.5, 1.0]]), None, 0.0))
    @example(net=([" a", "a "], np.array([[1.0, -0.0], [-0.0, 5e-324]]), None, 0.0))
    def test_labels_and_values_roundtrip(self, tmp_path_factory, net):
        labels, s, _, _ = net
        path = tmp_path_factory.mktemp("m") / "m.csv"
        write_similarity_csv(path, SimilarityLayer(labels, s))
        back = load_similarity_csv(path)
        assert back.labels == tuple(labels)
        assert back.S.tobytes() == (s + 0.0).tobytes()  # bit-equal, -0.0 written as 0


class TestWritersMatchReference:
    """The text writers give the same bytes as csv.writer and ElementTree."""

    def check_export(self, path, labels, s, community, fmt, threshold):
        layer = SimilarityLayer(labels, s)
        partition = None if community is None else Partition(layer.labels, community, 0.0)
        export_graph(layer, partition, fmt, path, threshold)
        expected = export_graph_reference(layer.labels, layer.S, community, fmt, threshold)
        assert path.read_bytes() == expected.encode("utf-8")

    @settings(deadline=None, max_examples=60)
    @given(net=networks())
    @example(net=(["spü1"], np.array([[-0.0]]), None, 0.0))
    def test_similarity_csv(self, tmp_path_factory, net):
        labels, s, _, _ = net
        layer = SimilarityLayer(labels, s)
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        upper = write_similarity_csv(path, layer)
        assert path.read_bytes() == similarity_csv_reference(layer.labels, layer.S).encode("utf-8")
        # the texts returned for the edge files are the upper triangle's, as fmt17 renders them
        assert decode17(upper) == [fmt17(x) for x in layer.S[np.triu_indices(layer.n)]]

    @pytest.mark.parametrize("fmt", pipeline.EXPORT_FORMATS)
    @settings(deadline=None, max_examples=60)
    @given(net=networks())
    def test_export(self, tmp_path_factory, fmt, net):
        labels, s, community, threshold = net
        self.check_export(tmp_path_factory.mktemp("g") / "out", labels, s, community, fmt, threshold)

    @pytest.mark.parametrize("fmt", pipeline.EXPORT_FORMATS)
    @pytest.mark.parametrize("with_partition", [False, True])
    @pytest.mark.parametrize("threshold", [-1.0, 0.1, 1.0], ids=["all", "some", "none"])
    def test_tricky_labels(self, tmp_path, fmt, with_partition, threshold):
        n = len(TRICKY)
        s = np.full((n, n), 0.1)
        s[::2, ::2] = 1e-300
        s[1::3, :] = s[:, 1::3] = -0.0
        s[0, 1] = s[1, 0] = 0.75
        np.fill_diagonal(s, 1.0)
        community = np.arange(n) % 3 if with_partition else None
        self.check_export(tmp_path / "out", TRICKY, s, community, fmt, threshold)

    @pytest.mark.parametrize("fmt", pipeline.EXPORT_FORMATS)
    @pytest.mark.parametrize("community", [None, np.array([0])], ids=["plain", "partition"])
    def test_single_node(self, tmp_path, fmt, community):
        self.check_export(tmp_path / "out", ('a"&ü',), np.array([[1.0]]), community, fmt, 0.0)

    @pytest.mark.parametrize("fmt", ["edge-list", "graphml"])
    def test_several_edge_blocks(self, tmp_path, fmt):
        n = 120
        labels = [f"{TRICKY[i % len(TRICKY)]}{i}" for i in range(n)]
        rng = np.random.default_rng(6)
        s = rng.random((n, n))
        s = (s + s.T) / 2
        s[::7, ::5] = s[::5, ::7] = 1.0 / 3.0
        np.fill_diagonal(s, 1.0)
        # the threshold drops some pairs and keeps two blocks of edges, the last one short
        kept = np.count_nonzero(np.triu(s > 0.2, 1))
        assert pipeline._EDGE_BLOCK < kept < min(2 * pipeline._EDGE_BLOCK, n * (n - 1) // 2)
        self.check_export(tmp_path / "out", labels, s, np.arange(n) % 4, fmt, 0.2)


class TestRunPipeline:
    def paths(self):
        return tuple(sorted(str(p) for p in DATA.glob("*.csv")))

    def test_small_run_report_shapes(self, tmp_path):
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(inputs=self.paths()[:3], output_dir=str(out), seed=1))
        assert len(report.fusion) == 4
        assert report.monoplex_dcor.S.shape == (4, 4)
        assert len(report.snf_layer_dcor) == 3
        assert set(report.partitions) == set(report.fusion)
        for _, v in report.snf_layer_dcor:
            assert 0.0 <= v <= 1.0
        # the dcor artifact is the table, and the table is a network like any other
        table = report.monoplex_dcor
        read = load_similarity_csv(out / "dcor_monoplexes.csv")
        assert read.labels == table.labels == tuple(report.fusion)
        assert np.array_equal(read.S, table.S)
        assert louvain_communities(table).labels == table.labels
        export_graph(table, None, "edge-list", tmp_path / "dcor_edges.csv")
        assert (tmp_path / "dcor_edges.csv").read_text().startswith("source,target,weight\n")

    def test_edge_files_are_the_monoplexes_exported(self, tmp_path):
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(inputs=self.paths(), output_dir=str(out), export_threshold=0.3))
        kept = []
        for name, partition in report.partitions.items():
            layer = load_similarity_csv(out / f"monoplex_{name}.csv")
            assert partition.labels == layer.labels
            for fmt, path in (("edge-list", out / f"edges_{name}.csv"), ("graphml", out / f"graph_{name}.graphml")):
                expected = export_graph_reference(layer.labels, layer.S, partition.community, fmt, 0.3)
                assert path.read_bytes() == expected.encode("utf-8")
            kept.append(np.count_nonzero(np.triu(layer.S > 0.3, 1)))
        # the threshold drops some edges of some monoplexes, and no monoplex loses all of them
        assert len(kept) == 4 and 0 < min(kept) < layer.n * (layer.n - 1) // 2

    def test_uniform_weights_mode(self, tmp_path):
        cfg = PipelineConfig(
            inputs=self.paths()[:3],
            output_dir=str(tmp_path / "out"),
            weights_mode="uniform",
        )
        report = run_pipeline(cfg)
        for name, res in report.fusion.items():
            if name != "snf":
                assert np.array_equal(res.weights, np.full(3, 1.0 / 3.0))

    def test_methods_subset(self, tmp_path):
        cfg = PipelineConfig(
            inputs=self.paths()[:3],
            output_dir=str(tmp_path / "out"),
            methods=("sma-frobenius", "sma-wasserstein"),
        )
        report = run_pipeline(cfg)
        assert tuple(report.fusion) == ("sma-frobenius", "sma-wasserstein")
        assert report.snf_layer_dcor == ()
        assert not (tmp_path / "out" / "dcor_snf_vs_layers.csv").exists()

    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig(inputs=self.paths()[:3], output_dir=str(out))
        run_pipeline(cfg)
        for name in (
            "report.json",
            "weights.csv",
            "dcor_monoplexes.csv",
            "dcor_snf_vs_layers.csv",
            "partitions.csv",
            "filter_log.csv",
            "monoplex_snf.csv",
            "graph_snf.graphml",
            "edges_snf.csv",
        ):
            assert (out / name).is_file(), name
        report = json.loads((out / "report.json").read_text())
        assert report["entities"] == {"initial": 18, "final": 16}

    def test_config_validation(self, tmp_path):
        with pytest.raises(InvalidParameter):
            PipelineConfig(inputs=self.paths()[:1], output_dir=str(tmp_path))
        with pytest.raises(InvalidParameter):
            PipelineConfig(
                inputs=self.paths()[:2], output_dir=str(tmp_path), weights_mode="magic"
            )
        with pytest.raises(InvalidParameter):
            PipelineConfig(
                inputs=("missing_file.csv", "other.csv"), output_dir=str(tmp_path)
            )
        with pytest.raises(InvalidParameter, match="seed"):
            PipelineConfig(inputs=self.paths()[:2], output_dir=str(tmp_path), seed=-1)

    def test_config_from_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "inputs": self.paths()[:3],
                    "output_dir": str(tmp_path / "out"),
                    "sigma": "auto",
                    "snf": {"k": 4, "epsilon": 1e-7},
                    "sma": {"tol": 1e-9},
                    "weights_mode": "rv-rowsum",
                    "seed": 7,
                }
            )
        )
        cfg = PipelineConfig.from_file(cfg_path)
        assert cfg.sigma is None
        assert cfg.snf.k == 4 and cfg.snf.epsilon == 1e-7
        assert cfg.sma.tol == 1e-9 and cfg.sma.max_iter == 1000
        assert cfg.weights_mode == "rv-rowsum"
        report = run_pipeline(cfg)
        assert len(report.fusion) == 4

    @pytest.mark.parametrize("metric", ["frobenius", "riemannian", "wasserstein"])
    def test_out_of_range_monoplex_names_its_method(self, tmp_path, monkeypatch, metric):
        solve = pipeline.solve_barycenter

        def stretched(layers, w, name, cfg):
            result = solve(layers, w, name, cfg)
            if name == metric:
                result.matrix = result.matrix * 2.0
            return result

        monkeypatch.setattr(pipeline, "solve_barycenter", stretched)
        cfg = PipelineConfig(inputs=self.paths()[:3], output_dir=str(tmp_path / "out"))
        with pytest.raises(InvalidInput, match=r"outside \[0, 1\]") as info:
            run_pipeline(cfg)
        assert info.value.__notes__ == [f"[stage sma-{metric}]"]
        assert not (tmp_path / "out").exists()

    def test_weight_tables_computed_once(self, tmp_path, monkeypatch):
        calls = {"weights_frobenius": 0, "weights_rowsum": 0}
        for name in calls:
            fn = getattr(pipeline, name)

            def counted(rv, fn=fn, name=name):
                calls[name] += 1
                return fn(rv)

            monkeypatch.setattr(pipeline, name, counted)
        run_pipeline(PipelineConfig(inputs=self.paths(), output_dir=str(tmp_path / "out")))
        assert calls == {"weights_frobenius": 1, "weights_rowsum": 1}

    def test_weight_table_error_names_weights_stage(self, tmp_path, monkeypatch):
        def degenerate(rv):
            raise DegenerateSpectrum("leading RV eigenvalue is not simple")

        monkeypatch.setattr(pipeline, "weights_frobenius", degenerate)
        cfg = PipelineConfig(inputs=self.paths()[:3], output_dir=str(tmp_path / "out"))
        with pytest.raises(DegenerateSpectrum) as info:
            run_pipeline(cfg)
        assert info.value.__notes__ == ["[stage weights]"]

    @pytest.mark.parametrize("mode", WEIGHT_MODES)
    def test_barycenter_weights_read_the_mode_table(self, tmp_path, mode):
        cfg = PipelineConfig(
            inputs=self.paths()[:3], output_dir=str(tmp_path / "out"), weights_mode=mode,
            methods=("sma-frobenius", "sma-riemannian", "sma-wasserstein"),
        )
        report = pipeline.fuse_stages(cfg)
        tables = report.weight_tables
        assert list(tables) == ["frobenius", "rowsum"]
        for method, result in report.fusion.items():
            expected = {
                "uniform": uniform_weights(3),
                "rv-leading-eigenvector": tables["frobenius"],
                "rv-rowsum": tables["rowsum"],
                "paired": tables["frobenius" if method == "sma-frobenius" else "rowsum"],
            }[mode]
            assert np.array_equal(result.weights, expected), method

    def test_repeated_layer_name_rejected(self, tmp_path):
        # a/L.csv and b/L.csv would share one layers/L.csv and one rbf_sigma entry
        paths = []
        for sub, src in zip("ab", self.paths()):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "L.csv"))
            Path(paths[-1]).write_bytes(Path(src).read_bytes())
        cfg = PipelineConfig(inputs=paths, output_dir=str(tmp_path / "out"))
        with pytest.raises(InvalidInput, match="duplicate layer name 'L'") as info:
            run_pipeline(cfg)
        assert info.value.__notes__ == ["[stage similarity]"]
        assert not (tmp_path / "out").exists()

    def test_stage_error_keeps_type_and_attributes(self, tmp_path, monkeypatch):
        def denied(paths):
            raise PermissionError(errno.EACCES, "denied", "x.csv")

        monkeypatch.setattr(pipeline, "load_abundance_tables", denied)
        cfg = PipelineConfig(inputs=self.paths()[:2], output_dir=str(tmp_path / "out"))
        with pytest.raises(PermissionError) as info:
            run_pipeline(cfg)
        assert info.value.errno == errno.EACCES
        assert info.value.filename == "x.csv"
        assert info.value.__notes__ == ["[stage load]"]

    @pytest.mark.parametrize(
        "extra",
        [{"max_iters": 5}, {"snf": {"max_iters": 5}}, {"sma": {"tolerance": 1e-9}}],
        ids=["top", "snf", "sma"],
    )
    def test_unknown_config_keys_rejected(self, tmp_path, extra):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"inputs": self.paths()[:2], "output_dir": "out", **extra}))
        with pytest.raises(ParseError, match="unknown keys"):
            PipelineConfig.from_file(p)

    def test_bad_config_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            PipelineConfig.from_file(p)
        p.write_text(json.dumps({"inputs": []}))
        with pytest.raises(ParseError):
            PipelineConfig.from_file(p)


class TestConcurrentFusion:
    """``fuse_stages`` fuses the methods on the calling thread plus helper threads."""

    def paths(self):
        return tuple(sorted(str(p) for p in DATA.glob("*.csv")))

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        assert parallel._cpu_count() == 3
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
        assert parallel._cpu_count() == 1

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        # more drainers than this machine may have cores, so helpers always run
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)

    @pytest.fixture
    def threaded(self, monkeypatch, four_cpus):
        # the fixture's networks are far below the size rule
        monkeypatch.setattr(parallel, "MIN_THREADED_N", 0)

    def test_results_equal_a_sequential_loop(self, tmp_path, monkeypatch, threaded):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        cfg = PipelineConfig(inputs=self.paths(), output_dir=str(tmp_path / "out"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_pipeline(cfg)
        finally:
            sys.setswitchinterval(interval)
        # three helpers fuse methods; a per-layer map may start more as they finish
        assert len(started) >= 3

        tables, _ = filter_entities(load_abundance_tables(cfg.inputs))
        multiplex, _ = pipeline.build_layers(tables, cfg.sigma)
        rv = rv_matrix(multiplex)
        weight_tables = {"frobenius": weights_frobenius(rv), "rowsum": weights_rowsum(rv)}
        assert tuple(report.fusion) == cfg.methods
        for method in cfg.methods:
            expected = pipeline.fuse_method(multiplex, method, cfg, weight_tables)
            got = report.fusion[method]
            assert np.array_equal(got.matrix, expected.matrix), method
            assert got.residual_history == expected.residual_history, method
            assert (got.weights is None) == (expected.weights is None), method
            if expected.weights is not None:
                assert np.array_equal(got.weights, expected.weights), method

    def test_first_failure_in_config_order_wins(self, tmp_path, monkeypatch, threaded):
        solve = pipeline.solve_barycenter
        wasserstein_failed = threading.Event()
        raised = {}

        def failing(layers, w, name, cfg):
            if name == "riemannian":
                # fail only after the Wasserstein mean has failed on another thread
                assert wasserstein_failed.wait(timeout=60)
                raised[name] = SingularMatrix("riemannian failed")
                raise raised[name]
            if name == "wasserstein":
                raised[name] = InvalidInput("wasserstein failed")
                wasserstein_failed.set()
                raise raised[name]
            return solve(layers, w, name, cfg)

        monkeypatch.setattr(pipeline, "solve_barycenter", failing)
        cfg = PipelineConfig(inputs=self.paths()[:3], output_dir=str(tmp_path / "out"))
        with pytest.raises(SingularMatrix, match="riemannian failed") as info:
            run_pipeline(cfg)
        assert wasserstein_failed.is_set()
        assert info.value is raised["riemannian"]
        assert info.value.__notes__ == ["[stage sma-riemannian]"]
        assert not (tmp_path / "out").exists()

    def test_no_method_starts_after_a_failure(self, tmp_path, monkeypatch, four_cpus):
        # the fixture's networks are below the size rule, so the methods run inline in order
        solve = pipeline.solve_barycenter
        called = []

        def failing(layers, w, name, cfg):
            called.append(name)
            if name == "riemannian":
                raise SingularMatrix("riemannian failed")
            return solve(layers, w, name, cfg)

        monkeypatch.setattr(pipeline, "solve_barycenter", failing)
        cfg = PipelineConfig(inputs=self.paths()[:3], output_dir=str(tmp_path / "out"))
        with pytest.raises(SingularMatrix, match="riemannian failed") as info:
            run_pipeline(cfg)
        assert info.value.__notes__ == ["[stage sma-riemannian]"]
        assert called == ["frobenius", "riemannian"]
        assert not (tmp_path / "out").exists()

    def test_single_method_starts_no_thread(self, tmp_path, monkeypatch, four_cpus):
        # the fixture's networks are below the size rule, so even the per-layer maps run inline
        def no_thread(*args, **kwargs):
            raise AssertionError("a run below the size rule started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        cfg = PipelineConfig(
            inputs=self.paths()[:3], output_dir=str(tmp_path / "out"), methods=("snf",)
        )
        report = run_pipeline(cfg)
        assert tuple(report.fusion) == ("snf",)
        assert (tmp_path / "out" / "monoplex_snf.csv").is_file()

    def test_below_the_size_rule_no_method_starts_a_thread(self, tmp_path, monkeypatch, four_cpus):
        def no_thread(*args, **kwargs):
            raise AssertionError("a run below the size rule started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        report = run_pipeline(PipelineConfig(inputs=self.paths(), output_dir=str(tmp_path / "out")))
        assert tuple(report.fusion) == pipeline.ALL_METHODS

    def test_thread_bound_holds_under_fuse_all(self, tmp_path, monkeypatch):
        # three CPUs: at most three threads run items of the maps that fuse the
        # methods and of their per-layer maps; a caller waiting for its helpers
        # runs no item and lends its slot
        monkeypatch.setattr(parallel, "_cpu_count", lambda: 3)
        monkeypatch.setattr(parallel, "MIN_THREADED_N", 0)
        lock = threading.Lock()
        inside = {}  # thread id -> what it is in, innermost last: True for an item, False for a map
        most, on_helpers = [0], []

        def move(step):
            with lock:
                step(inside.setdefault(threading.get_ident(), []))
                most[0] = max(most[0], sum(1 for s in inside.values() if s and s[-1]))

        def counted(real):
            def map_ordered(fn, items, n):
                def item(x):
                    move(lambda s: s.append(True))
                    on_helpers.append(threading.current_thread() is not threading.main_thread())
                    try:
                        return fn(x)
                    finally:
                        move(list.pop)

                move(lambda s: s.append(False))
                try:
                    return real(item, items, n)
                finally:
                    move(list.pop)

            return map_ordered

        for module in (pipeline, snf, sma):
            monkeypatch.setattr(module, "map_ordered", counted(parallel.map_ordered))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_pipeline(PipelineConfig(inputs=self.paths(), output_dir=str(tmp_path / "out")))
        finally:
            sys.setswitchinterval(interval)
        assert tuple(report.fusion) == pipeline.ALL_METHODS
        assert any(on_helpers)
        assert 1 <= most[0] <= 3
        assert parallel._helpers == 0
