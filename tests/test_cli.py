import csv
import json

import pytest

from pointspec import spectra
from pointspec.cli import COMMANDS, main
from pointspec.geometry import Interval
from pointspec.sources import fibonacci_substitution


def write_cfg(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_generate_fibonacci_matches_substitution_oracle(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "fibonacci"},
        "generate": {"region": [0, 100]},
    })
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "points.json").read_text())
    assert doc["coords"] == "exact"
    oracle = fibonacci_substitution().window(Interval(0, 100)).total_points
    assert len(doc["points"]) == oracle


def test_generate_lattice(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "generate": {"region": [0, 5]},
    })
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "points.json").read_text())
    assert len(doc["points"]) == 6


@pytest.mark.parametrize("source", [{"type": "fibonacci"}, {"type": "fibonacci", "offset": 0.5},
                                    {"type": "lattice"}, {"type": "thue_morse"}, {"type": "poisson"}])
def test_generate_on_a_reversed_region_writes_no_points(tmp_path, source):
    # the cut-and-project window once failed unpacking an empty candidate list
    cfg = write_cfg(tmp_path / "cfg.json", {"source": source, "generate": {"region": [10, 0]}})
    out = tmp_path / "out"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "points.json").read_text())["points"] == []


def test_bad_spec_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "nope"}, "generate": {"region": [0, 5]},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["generate", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_freq_ratio_column_converges(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "van_hove": {"n0": 125, "doublings": 3},
        "freq": {"cluster": [[0.0]], "offsets": 1},
    })
    out = tmp_path / "out"
    assert main(["freq", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "freq.csv") as fh:
        rows = list(csv.DictReader(fh))
    last = [r for r in rows if float(r["n"]) == 1000]
    assert all(abs(float(r["ratio"]) - 1.0) <= 5e-4 for r in last)
    summary = json.loads((out / "freq.json").read_text())
    assert abs(summary["value"] - 1.0) <= 5e-4


def test_diffract_lattice_integer_peaks(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "diffract": {"k_min": -2, "k_max": 2, "resolution": 0.01,
                     "n_schedule": [500, 1000]},
    })
    out = tmp_path / "out"
    assert main(["diffract", "--config", cfg, "--out", str(out), "--plot-data"]) == 0
    with open(out / "diffract.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["retained"] == "1"]
    ks = sorted(round(float(r["k"])) for r in rows)
    assert ks == [-2, -1, 0, 1, 2]
    assert (out / "diffract.dat").exists()


def test_metric_bracket_output(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "metric": {"other_source": {"type": "lattice", "basis": [[1.0]], "offset": 0.1},
                   "eps_grid": 0.01},
    })
    out = tmp_path / "out"
    assert main(["metric", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "metric.json").read_text())
    assert doc["lower"] <= 0.05 <= doc["upper"]
    assert doc["upper"] - doc["lower"] <= 0.01


def test_partition_output(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "partition": {"R": 1.0, "delta": 0.6, "scan_length": 200},
    })
    out = tmp_path / "out"
    assert main(["partition", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "partition.json").read_text())
    assert doc["n_cells"] == 2
    total = sum(c["interval"][1] - c["interval"][0] for c in doc["cells"])
    assert total == pytest.approx(1.0)


@pytest.mark.parametrize("source, R, n_cells", [("fibonacci", 3.7, 61), ("fibonacci", 2.2, 47),
                                              ("thue_morse", 3.7, 138), ("thue_morse", 2.2, 100)])
def test_partition_of_an_exact_source_takes_a_float_radius(tmp_path, source, R, n_cells):
    # the exact scan once took R at its binary value and exited 2 here
    cfg = write_cfg(tmp_path / "cfg.json", {"source": {"type": source}, "partition": {"R": R}})
    assert main(["partition", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "partition.json").read_text())
    assert (doc["radius"], doc["n_cells"]) == (R, n_cells)


def test_autocorr_outputs_both_methods(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]], "colors": 2},
        "weights": [1, -1],
        "autocorr": {"radius": 3, "n": 500, "method": "both"},
    })
    out = tmp_path / "out"
    assert main(["autocorr", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "autocorr.csv") as fh:
        rows = list(csv.DictReader(fh))
    methods = {r["method"] for r in rows}
    assert methods == {"direct", "from-frequencies"}
    c1 = [float(r["re_c"]) for r in rows if r["method"] == "direct"
          and abs(float(r["t"]) - 1.0) < 1e-9]
    assert c1 and c1[0] == pytest.approx(-1.0, abs=2e-3)


def test_byte_identical_reruns_and_manifest_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "poisson", "intensity": 1.0, "seed": 4},
        "generate": {"region": [0, 50]},
    })
    out1, out2, out3 = (tmp_path / d for d in ("o1", "o2", "o3"))
    assert main(["generate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "points.json").read_bytes() == (out2 / "points.json").read_bytes()
    # re-run from the emitted manifest reproduces outputs
    assert main(["generate", "--config", str(out1 / "manifest.json"),
                 "--out", str(out3)]) == 0
    assert (out1 / "points.json").read_bytes() == (out3 / "points.json").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out3 / "manifest.json").read_bytes()


def test_classes_command(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "classes": {"R": 1.0, "scan": [0, 50]},
    })
    out = tmp_path / "out"
    assert main(["classes", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "classes.json").read_text())
    assert doc["n_classes"] == 1


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "nonsense"]) == 2
    assert "config error: unknown suite 'nonsense'" in capsys.readouterr().err


def test_verify_threads_flag_validated(capsys):
    assert main(["verify", "lattice", "--fast", "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_verify_lattice_suite_passes(capsys, tmp_path):
    rc = main(["verify", "lattice", "--fast", "--out", str(tmp_path)])
    outtext = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] lattice_frequency" in outtext
    assert (tmp_path / "verify.txt").exists()


def test_threads_flag_validated(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "lattice", "basis": [[1.0]]},
        "generate": {"region": [0, 5]},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


def test_freq_output_does_not_depend_on_threads(tmp_path):
    # an exact source and a Poisson source, whose generator is local to each query
    docs = [{"source": {"type": "fibonacci", "offset": 0.5},
             "freq": {"cluster": [[0.0, 1.618033988749895], []], "offsets": 8}},
            {"source": {"type": "poisson", "intensity": 1.0, "seed": 4},
             "freq": {"cluster": [[0.0]], "offsets": 8}}]
    for k, doc in enumerate(docs):
        cfg = write_cfg(tmp_path / ("cfg%d.json" % k), dict(doc, van_hove={"n0": 50, "doublings": 2}))
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / ("s%d-t%s" % (k, threads))
            assert main(["freq", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(outs[0]) == ["freq.csv", "freq.json", "manifest.json"]
        assert outs[0] == outs[1]


def test_diffract_output_does_not_depend_on_threads_or_cpus(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "fibonacci"},
        "diffract": {"k_min": -2, "k_max": 2, "resolution": 0.01, "n_schedule": [100, 200]}})
    outs = []
    for cpus in (1, 2):  # the peak refinement splits its rows on two CPUs
        monkeypatch.setattr(spectra, "_usable_cpus", lambda: cpus)
        for threads in ("1", "4"):
            out = tmp_path / ("c%d-t%s" % (cpus, threads))
            assert main(["diffract", "--config", cfg, "--out", str(out), "--threads", threads]) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert sorted(outs[0]) == ["diffract.csv", "manifest.json"]
    assert all(out == outs[0] for out in outs)


@pytest.mark.parametrize("command, doc", [
    ("autocorr", {"source": {"type": "lattice"}, "weights": [[1]],
                  "autocorr": {"radius": 2, "n": 20}}),
    ("autocorr", {"source": {"type": "lattice"}, "weights": [["a", 1]],
                  "autocorr": {"radius": 2, "n": 20}}),
    ("generate", {"source": {"type": "lattice"}, "generate": {"region": ["a", 3]}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"cluster": [["x"]]}}),
    ("generate", {"source": {"type": "lattice", "basis": "q"}, "generate": {"region": [0, 3]}}),
    ("metric", {"source": {"type": "lattice"},
                "metric": {"other_source": {"type": "lattice", "basis": "q"}}}),
    ("freq", {"source": {"type": "lattice"}, "van_hove": {"n0": "x"}}),
    ("classes", {"source": {"type": "lattice"}, "classes": {"R": "x"}}),
    ("autocorr", {"source": {"type": "lattice"}, "autocorr": {"radius": "x"}}),
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"k_min": "x"}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"offsets": "x"}}),
    ("partition", {"source": {"type": "lattice"}, "partition": {"delta": "x"}}),
    ("metric", {"source": {"type": "lattice"},
                "metric": {"other_source": {"type": "lattice"}, "eps_grid": "x"}}),
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"n_schedule": "ab"}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"offset_span": [1]}}),
    # values the library rejects as out of range
    ("classes", {"source": {"type": "fibonacci"}, "classes": {"R": -1}}),
    ("autocorr", {"source": {"type": "lattice"}, "autocorr": {"radius": 0}}),
    ("partition", {"source": {"type": "fibonacci"}, "partition": {"delta": 0}}),
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"n_schedule": [2000, 1000]}}),
    # subcommand sections that are not JSON objects
    ("generate", {"source": {"type": "lattice"}, "generate": 5}),
    ("classes", {"source": {"type": "lattice"}, "classes": "x"}),
    ("freq", {"source": {"type": "lattice"}, "freq": []}),
    ("autocorr", {"source": {"type": "lattice"}, "autocorr": [1]}),
    ("diffract", {"source": {"type": "lattice"}, "diffract": "x"}),
    ("metric", {"source": {"type": "lattice"}, "metric": 3}),
    ("partition", {"source": {"type": "lattice"}, "partition": [0]}),
    ("freq", {"source": {"type": "lattice"}, "van_hove": "x"}),
    # a source peak_scan cannot scan
    ("diffract", {"source": {"type": "lattice", "basis": [[1, 0], [0, 1]]},
                  "diffract": {"n_schedule": [10, 20]}}),
    # values only the library checks; each once raised past the CLI (exit 1)
    ("partition", {"source": {"type": "fibonacci"}, "partition": {"R": -1}}),
    ("diffract", {"source": {"type": "lattice"},
                  "diffract": {"resolution": 0, "n_schedule": [10, 20]}}),
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"n_schedule": [10]}}),
    ("autocorr", {"source": {"type": "lattice"}, "weights": [0],
                  "autocorr": {"radius": 2, "n": 20}}),
    ("freq", {"source": {"type": "lattice"}, "van_hove": {"doublings": -1}}),
    ("freq", {"source": {"type": "lattice"}, "van_hove": {"n0": -5}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"cluster": [[]]}}),
    ("metric", {"source": {"type": "lattice"},
                "metric": {"other_source": {"type": "lattice", "basis": [[1, 0], [0, 1]]}}}),
    ("classes", {"source": {"type": "fibonacci"}, "classes": {"scan": [5, 1]}}),
    ("generate", {"source": {"type": "fibonacci"}, "generate": {"region": [0, 1e300]}}),
    ("generate", {"source": {"type": "lattice", "basis": [[1, 0], [0, 1]]},
                  "generate": {"region": [0, 3]}}),
    ("generate", {"source": {"type": "poisson", "seed": -1}, "generate": {"region": [0, 3]}}),
    ("generate", {"source": {"type": "cut_project"}, "generate": {"region": [0, 3]}}),
    ("generate", {"source": {"type": "cut_project", "windows": [{"lo": [0, 0]}]},
                  "generate": {"region": [0, 3]}}),
    ("generate", {"source": {"type": "substitution", "expansions": ["ab", "a"], "lengths": [1, 1]},
                  "generate": {"region": [0, 3]}}),
    ("autocorr", {"source": {"type": "lattice"}, "autocorr": {"radius": 2, "n": 0}}),
    ("autocorr", {"source": {"type": "lattice"}, "van_hove": {"dim": 2},
                  "autocorr": {"radius": 2, "n": 20}}),
    # values that once gave NaN or empty outputs and exit 0
    ("diffract", {"source": {"type": "lattice"},
                  "diffract": {"resolution": -0.1, "n_schedule": [10, 20]}}),
    ("diffract", {"source": {"type": "lattice"},
                  "diffract": {"k_min": 3, "k_max": -3, "n_schedule": [10, 20]}}),
    ("freq", {"source": {"type": "lattice"}, "van_hove": {"n0": 0}}),
    ("metric", {"source": {"type": "lattice"},
                "metric": {"other_source": {"type": "lattice"}, "eps_grid": -1}}),
    ("autocorr", {"source": {"type": "lattice"}, "autocorr": {"radius": 2, "n": -5}}),
    ("partition", {"source": {"type": "fibonacci"}, "partition": {"scan_length": -5}}),
    # a weight vector of the wrong length, which only the library checks
    ("autocorr", {"source": {"type": "lattice"}, "weights": [1, [0, 1]],
                  "autocorr": {"radius": 2, "n": 20}}),
    ("diffract", {"source": {"type": "fibonacci"}, "weights": [1],
                  "diffract": {"n_schedule": [10, 20]}}),
    # integer fields that int() once truncated to 1, 1, 2 and 0 while the manifest echoed them
    ("freq", {"source": {"type": "lattice"}, "van_hove": {"doublings": 1.5}}),
    ("freq", {"source": {"type": "lattice"}, "van_hove": {"doublings": True}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"offsets": 2.7}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"offsets": False}}),
    # source parameters that int() once truncated, and intensities that failed only in NumPy
    ("generate", {"source": {"type": "poisson", "seed": 1.5}, "generate": {"region": [0, 5]}}),
    ("generate", {"source": {"type": "lattice", "colors": 2.5}, "generate": {"region": [0, 5]}}),
    ("generate", {"source": {"type": "fibonacci", "colors": True}, "generate": {"region": [0, 5]}}),
    ("generate", {"source": {"type": "poisson", "dim": True}, "generate": {"region": [0, 5]}}),
    ("generate", {"source": {"type": "poisson", "intensity": float("nan")}, "generate": {"region": [0, 5]}}),
    ("generate", {"source": {"type": "poisson", "intensity": float("inf")}, "generate": {"region": [0, 5]}}),
    # booleans that float() once read as 1.0
    ("generate", {"source": {"type": "poisson", "intensity": True}, "generate": {"region": [0, 5]}}),
    ("generate", {"source": {"type": "lattice", "basis": [[2.0]], "offset": True},
                  "generate": {"region": [0, 5]}}),
    # a class scan from the left end of a one-sided source, where balls reach past it
    ("classes", {"source": {"type": "thue_morse"}, "classes": {"R": 1.0, "scan": [0, 50]}}),
    # a zero scan length, which once ran the default scan (scan_length -5 is above)
    ("partition", {"source": {"type": "fibonacci"}, "partition": {"scan_length": 0}}),
    # scans too short to see every piece (once a traceback) or to close one (once n_cells 0)
    ("partition", {"source": {"type": "fibonacci"}, "partition": {"scan_length": 5}}),
    ("partition", {"source": {"type": "fibonacci"}, "partition": {"scan_length": 1}}),
    # non-positive sizes, once a ZeroDivisionError traceback or one silent offset
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"n_schedule": [0, 200]}}),
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"n_schedule": [-100, 200]}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"offsets": 0}}),
    ("freq", {"source": {"type": "lattice"}, "freq": {"offsets": -3}}),
    # a reversed class scan, which once failed unpacking an empty candidate list
    ("classes", {"source": {"type": "fibonacci"}, "classes": {"scan": [100, 0]}}),
    # non-finite weights (JSON's Infinity and NaN), once nan rows and an empty table with exit 0
    ("autocorr", {"source": {"type": "lattice"}, "weights": [float("inf")],
                  "autocorr": {"radius": 2, "n": 20}}),
    ("diffract", {"source": {"type": "lattice"}, "weights": [float("nan")],
                  "diffract": {"n_schedule": [10, 20]}}),
    # a non-finite k range, once numpy's "Maximum allowed size exceeded"
    ("diffract", {"source": {"type": "lattice"}, "diffract": {"k_max": float("inf"), "n_schedule": [10, 20]}}),
])
def test_malformed_config_values_exit_2(tmp_path, capsys, command, doc):
    cfg = write_cfg(tmp_path / "cfg.json", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_integer_fields_accept_integral_floats(tmp_path):
    outs = []
    for k, offsets in enumerate((2, 2.0)):
        cfg = write_cfg(tmp_path / ("cfg%d.json" % k),
                        {"source": {"type": "lattice"}, "van_hove": {"n0": 50, "doublings": 1},
                         "freq": {"offsets": offsets}})
        assert main(["freq", "--config", cfg, "--out", str(tmp_path / str(k))]) == 0
        outs.append((tmp_path / str(k) / "freq.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("text, message", [("{not json", "config is not valid JSON"),
                                           ("[1, 2]", "config root must be a JSON object")])
def test_unreadable_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: " + message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_autocorr_plot_data_holds_the_first_measure(tmp_path):
    # on this Fibonacci window the two routes differ in the last bits of two coefficients
    cfg = write_cfg(tmp_path / "cfg.json", {
        "source": {"type": "fibonacci"},
        "weights": [1, [2, 0]],
        "autocorr": {"radius": 2, "n": 50, "method": "both"},
    })
    out = tmp_path / "out"
    assert main(["autocorr", "--config", cfg, "--out", str(out), "--plot-data"]) == 0
    lines = (out / "autocorr.dat").read_text().splitlines()
    assert lines[0] == "# t re_c im_c"
    with open(out / "autocorr.csv") as fh:
        direct = [[r["t"], r["re_c"], r["im_c"]] for r in csv.DictReader(fh) if r["method"] == "direct"]
    assert [line.split() for line in lines[1:]] == direct
    assert len(direct) == 5


DATA_RUNS = {
    "generate": ({"generate": {"region": [0, 5]}}, ["points.json"]),
    "classes": ({"classes": {"R": 1.0, "scan": [0, 20]}}, ["classes.json"]),
    "freq": ({"van_hove": {"n0": 10, "doublings": 1}, "freq": {"offsets": 3}},
             ["freq.csv", "freq.json"]),
    "autocorr": ({"autocorr": {"radius": 2, "n": 20}}, ["autocorr.csv", "autocorr.dat"]),
    "diffract": ({"diffract": {"k_min": -1, "k_max": 1, "resolution": 0.05, "n_schedule": [20, 40]}},
                 ["diffract.csv", "diffract.dat"]),
    "metric": ({"metric": {"other_source": {"type": "lattice", "offset": 0.1}, "eps_grid": 0.05}},
               ["metric.json"]),
    "partition": ({"partition": {"R": 1.0, "delta": 0.6, "scan_length": 50}}, ["partition.json"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_main_writes_exactly_the_files_its_manifest_lists(tmp_path, command):
    doc, files = DATA_RUNS[command]
    doc = dict(doc, source={"type": "lattice"})
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path / "cfg.json", doc), "--out", str(out),
                 "--plot-data"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest == {"command": command, "config": doc, "outputs": files}
    assert sorted(f.name for f in out.iterdir()) == sorted(files + ["manifest.json"])
