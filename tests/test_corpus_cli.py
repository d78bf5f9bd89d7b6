"""Corpus generation determinism, serialization round-trips, and the
command-line surface."""

import json
from importlib import resources

import pytest

from hyperrings.cli import main
from hyperrings.corpus import (
    CorpusSpec,
    generate_corpus,
    manifest_json_bytes,
    ordinary_ring,
    save_corpus,
    slug,
    total_hyperop_ring,
)
from hyperrings.io import load_ring, ring_to_json_bytes, save_ring
from hyperrings.theorems import SuiteReport


class TestCorpusGeneration:
    def test_deterministic(self):
        a = generate_corpus(CorpusSpec())
        b = generate_corpus(CorpusSpec())
        assert manifest_json_bytes(a) == manifest_json_bytes(b)

    def test_matches_checked_in_manifest(self, default_corpus):
        pinned = resources.files("hyperrings.data") \
            .joinpath("corpus_manifest.json").read_bytes()
        assert manifest_json_bytes(default_corpus) == pinned

    def test_all_members_revalidate_after_round_trip(self, tmp_path,
                                                     default_corpus):
        for ring in default_corpus.rings:
            path = tmp_path / f"{slug(ring.name)}.json"
            save_ring(ring, path)
            loaded = load_ring(path)
            assert loaded.table_key() == ring.table_key()
            assert ring_to_json_bytes(loaded) == path.read_bytes()

    def test_degenerate_a_set_deduplicated(self, default_corpus):
        # A = {1} reproduces the ordinary ring and is dropped as a duplicate
        names = default_corpus.names()
        assert "Z4_A1" not in names
        assert any(label == "Z4_A1" and reason == "duplicate tables"
                   for label, reason in default_corpus.discarded)

    def test_invalid_total_variant_discarded_with_log(self):
        result = generate_corpus(CorpusSpec(
            ordinary_range=(2, 2), zna_range=(2, 2), total_range=(2, 3),
            closure_depth=0))
        labels = [label for label, _ in result.discarded]
        assert "Z2_total_punctured" in labels
        assert all("Z2_total_punctured" != r.name for r in result.rings)

    def test_total_families_validate_at_n3(self):
        full = total_hyperop_ring(3, "full")
        assert full.size == 3
        absorbing = total_hyperop_ring(3, "absorbing")
        assert absorbing.hmul[0][2] == 1

    def test_save_corpus_writes_manifest(self, tmp_path):
        result = generate_corpus(CorpusSpec(
            ordinary_range=(2, 4), zna_range=(2, 2), closure_depth=0))
        paths = save_corpus(result, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [m["name"] for m in manifest] == result.names()
        for path in paths:
            load_ring(path)


class TestCli:
    def write_ring(self, tmp_path, ring, name=None):
        path = tmp_path / f"{name or slug(ring.name)}.json"
        save_ring(ring, path)
        return path

    def test_validate_ok(self, tmp_path, z4, capsys):
        path = self.write_ring(tmp_path, z4)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid hyperring" in out
        assert "scalar identity: 1" in out

    def test_validate_broken_names_cell(self, tmp_path, capsys):
        obj = {"name": "broken", "size": 2, "add": [[0, 1], [1, 0]],
               "hmul": [[[0], [0]], [[0], []]]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(obj))
        assert main(["validate", str(path)]) == 2
        assert "hmul[1][1]" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_file_not_utf8_is_exit_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: not UTF-8 text: ")

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_ideals_listing(self, tmp_path, z4, capsys):
        path = self.write_ring(tmp_path, z4)
        assert main(["ideals", str(path)]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [e["elements"] for e in listing] == [[0], [0, 2], [0, 1, 2, 3]]

    def test_classify_reports_n_ideals(self, tmp_path, z4, capsys):
        path = self.write_ring(tmp_path, z4)
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        flags = {tuple(e["elements"]): e for e in report["ideals"]}
        assert flags[(0,)]["n_ideal"] and flags[(0, 2)]["n_ideal"]
        assert not flags[(0, 1, 2, 3)]["n_ideal"]

    def test_ideals_and_classify_take_any_carrier_size(self, tmp_path, capsys):
        path = self.write_ring(tmp_path, ordinary_ring(17))
        full = list(range(17))
        assert main(["ideals", str(path)]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert [e["elements"] for e in listing] == [[0], full]
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        flags = {tuple(e["elements"]): e for e in report["ideals"]}
        assert list(flags) == [(0,), tuple(full)]
        # a field: the zero ideal is prime, maximal and an n-ideal
        assert flags[(0,)]["prime"] and flags[(0,)]["maximal"]
        assert flags[(0,)]["n_ideal"] and not flags[tuple(full)]["n_ideal"]

    def test_cap_flags_are_gone(self, tmp_path, z4, capsys):
        path = str(self.write_ring(tmp_path, z4))
        for argv in (["ideals", path, "--cap", "32"],
                     ["classify", path, "--cap", "32"],
                     ["construct", "gamma-star", path, "--gamma-cap", "16"]):
            assert main(argv) == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_classify_single_ideal(self, tmp_path, z6, capsys):
        path = self.write_ring(tmp_path, z6)
        assert main(["classify", str(path), "--ideal", "0,3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ideals"][0]["prime"]
        assert report["ideals"][0]["r_ideal"]

    def test_theorems_run_on_directory(self, tmp_path, z4, z6, capsys):
        self.write_ring(tmp_path, z4)
        self.write_ring(tmp_path, z6)
        out_json = tmp_path / "report.json"
        code = main(["theorems", "run", "--corpus", str(tmp_path),
                     "--only", "T18,T20", "--json", str(out_json)])
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["summary"]["counterexample"] == 0
        assert {v["theorem"] for v in report["verdicts"]} == {"T18", "T20"}

    @pytest.mark.parametrize("timings", [False, True])
    def test_theorems_run_streams_the_report_bytes(self, tmp_path, timings,
                                                  monkeypatch, capsys):
        """``--json`` writes through the open file; the file holds exactly
        the bytes ``to_json_bytes`` gives for the same report."""
        written = []
        write_json = SuiteReport.write_json

        def spy(report, fp, include_timings=False):
            written.append((report, include_timings))
            write_json(report, fp, include_timings)

        monkeypatch.setattr(SuiteReport, "write_json", spy)
        out_json = tmp_path / "report.json"
        argv = ["theorems", "run", "--only", "T18,T35", "--json", str(out_json)]
        assert main(argv + ["--timings"] * timings) == 0
        [(report, include_timings)] = written
        assert include_timings == timings
        data = out_json.read_bytes()
        assert data == report.to_json_bytes(timings)
        assert ('"wall_ms"' in data.decode()) == timings

    def test_theorems_run_default_corpus_filtered(self, capsys):
        assert main(["theorems", "run", "--only", "T18,T20",
                     "--no-readings"]) == 0
        out = capsys.readouterr().out
        assert "counterexamples: 0" in out

    def test_theorems_counterexample_exit_code(self, tmp_path, capsys):
        from hyperrings.corpus import zn_with_products
        ring = zn_with_products(4, (2, 3))
        self.write_ring(tmp_path, ring)
        code = main(["theorems", "run", "--corpus", str(tmp_path),
                     "--only", "T29", "--reading", "standing=waived",
                     "--no-readings"])
        assert code == 1
        assert "COUNTEREXAMPLE" in capsys.readouterr().out

    def test_theorems_unknown_id(self, tmp_path, z4, capsys):
        self.write_ring(tmp_path, z4)
        assert main(["theorems", "run", "--corpus", str(tmp_path),
                     "--only", "T99"]) == 2

    @pytest.mark.parametrize("only", [",", "", " , "])
    def test_theorems_only_without_ids(self, tmp_path, z4, capsys, only):
        """An ``--only`` that names no id is a usage error, not a run of
        no cells or of the whole registry."""
        self.write_ring(tmp_path, z4)
        assert main(["theorems", "run", "--corpus", str(tmp_path),
                     "--only", only]) == 2
        captured = capsys.readouterr()
        assert "names no theorem id" in captured.err
        assert "holds:" not in captured.out

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["generate", "--out", str(out),
                     "--ordinary-lo", "2", "--ordinary-hi", "4",
                     "--zna-lo", "2", "--zna-hi", "3", "--depth", "0"])
        assert code == 0
        assert (out / "manifest.json").exists()
        assert (out / "Z4.json").exists()

    @pytest.mark.parametrize("depth", ["2", "-1"])
    def test_generate_refuses_an_unbuilt_depth(self, tmp_path, capsys, depth):
        out = tmp_path / "corpus"
        assert main(["generate", "--out", str(out), "--depth", depth]) == 2
        err = capsys.readouterr().err
        assert "closure depth must be 0 or 1" in err and f"not {depth}" in err
        assert not out.exists()

    def test_construct_quotient(self, tmp_path, z4, capsys):
        path = self.write_ring(tmp_path, z4)
        assert main(["construct", "quotient", str(path), "--ideal", "0,2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["size"] == 2
        assert obj["construction"] == "quotient"

    def test_construct_product(self, tmp_path, z4, z2, capsys):
        p4 = self.write_ring(tmp_path, z4)
        p2 = self.write_ring(tmp_path, z2)
        assert main(["construct", "product", str(p4), str(p2)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["size"] == 8

    def test_construct_matrix(self, tmp_path, z2, capsys):
        path = self.write_ring(tmp_path, z2)
        assert main(["construct", "matrix", str(path), "--n", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["size"] == 16
        assert obj["commutative"] is False

    def test_construct_gamma_star(self, tmp_path, z6a, z12, capsys):
        path = self.write_ring(tmp_path, z6a)
        assert main(["construct", "gamma-star", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["classes"] == [[0, 2, 4], [1, 3, 5]]
        assert obj["size"] == 2
        # past the registry's limit of 10 for T40
        path = self.write_ring(tmp_path, z12)
        assert main(["construct", "gamma-star", str(path)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["classes"] == [[x] for x in range(12)]
        assert obj["size"] == 12

    def test_construct_quotient_requires_ideal_flag(self, tmp_path, z4):
        path = self.write_ring(tmp_path, z4)
        assert main(["construct", "quotient", str(path)]) == 2

    def test_ideal_flag_is_checked(self, tmp_path, z4, capsys):
        # classify and construct quotient read --ideal through one parser:
        # an element outside the carrier or a subset that is not a
        # hyperideal is a usage error, with no report and no traceback
        path = str(self.write_ring(tmp_path, z4))
        for command in (["classify", path], ["construct", "quotient", path]):
            for ideal, message in (
                    ("0,9", "--ideal 0,9: elements [9] outside 0..3"),
                    ("0,4,5", "--ideal 0,4,5: elements [4, 5] outside 0..3"),
                    ("0,1", "--ideal 0,1: not a hyperideal of Z4")):
                assert main([*command, "--ideal", ideal]) == 2, (command, ideal)
                out, err = capsys.readouterr()
                assert out == "" and err == f"error: {message}\n"
