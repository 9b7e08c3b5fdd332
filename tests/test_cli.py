import io
import json

import pytest

from biphole import complete, parse_graph6, write_graph6
from biphole.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_family(capsys):
    code, out, _ = run(capsys, "alpha", "--family", "cycle,5")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "alpha", "--family", "complete,4")
    assert code == 0 and out.strip() == "1"


def test_alpha_certificate(capsys):
    code, out, _ = run(capsys, "alpha", "--family", "petersen", "--certificate")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["alpha_tilde"] == 5
    assert sum(doc["hole_free_pair"]) == 6
    assert len(doc["level_witnesses"]) == 4
    for w in doc["level_witnesses"]:
        assert w["s"] == sorted(w["s"]) and w["t"] == sorted(w["t"])


def test_alpha_graph6_and_stdin(capsys, monkeypatch):
    g6 = write_graph6(complete(4))
    code, out, _ = run(capsys, "alpha", "--graph6", g6)
    assert code == 0 and out.strip() == "1"
    monkeypatch.setattr("sys.stdin", io.StringIO(g6 + "\n"))
    code, out, _ = run(capsys, "alpha")
    assert code == 0 and out.strip() == "1"


def test_alpha_edges_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3 2\n1 2\n2 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "alpha", "--edges", str(f), "--one-based")
    assert code == 0 and out.strip() == "2"


def test_cycle_command(capsys):
    code, out, _ = run(capsys, "cycle", "--family", "complete,4", "--verify")
    assert code == 0
    seq = [int(x) for x in out.split()]
    assert sorted(seq) == [0, 1, 2, 3]


def test_cycle_not_two_connected_exit_2(capsys):
    code, _, err = run(capsys, "cycle", "--family", "path,3")
    assert code == 2 and "2-connected" in err


def test_path_command(capsys):
    code, out, _ = run(
        capsys, "path", "--family", "complete,4", "--from", "0", "--to", "3"
    )
    assert code == 0
    seq = [int(x) for x in out.split()]
    assert seq[0] == 0 and seq[-1] == 3 and sorted(seq) == [0, 1, 2, 3]


def test_path_degree_exit_3(capsys):
    code, _, err = run(
        capsys, "path", "--family", "cycle,5", "--from", "0", "--to", "2"
    )
    assert code == 3 and "degree" in err


def test_parse_error_exit_4(capsys):
    code, _, err = run(capsys, "alpha", "--graph6", "D~")
    assert code == 4 and "error" in err
    code, _, _ = run(capsys, "alpha", "--family", "nosuch,3")
    assert code == 4
    code, _, err = run(capsys, "alpha", "--family", "complete,600")
    assert code == 4 and err == "error: vertex count 600 outside 0..512\n"


def test_os_and_value_errors_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, "alpha", "--edges", str(tmp_path / "absent.txt"))
    assert code == 4 and err.startswith("error: ") and "absent.txt" in err
    code, _, err = run(
        capsys, "path", "--family", "complete,4", "--from", "0", "--to", "9"
    )
    assert code == 4 and err == "error: vertex outside graph\n"


def test_dot_output(tmp_path, capsys):
    dot = tmp_path / "out.dot"
    code, _, _ = run(
        capsys, "cycle", "--family", "cycle,5", "--dot", str(dot)
    )
    assert code == 0
    text = dot.read_text(encoding="utf-8")
    assert text.count("color=red") == 5


def test_path_dot_output(tmp_path, capsys):
    # An open walk: its vertices and the edges along it, but no closing edge.
    dot = tmp_path / "out.dot"
    code, out, _ = run(
        capsys, "path", "--family", "complete,4", "--from", "0", "--to", "3",
        "--dot", str(dot),
    )
    assert code == 0 and out == "0 1 2 3\n"
    text = dot.read_text(encoding="utf-8")
    assert text.count("fillcolor=lightblue") == 4
    assert text.count("color=red") == 3
    assert "0 -- 3 [color=red" not in text


def test_failed_dot_write_prints_no_walk(tmp_path, capsys):
    dot = str(tmp_path / "absent" / "x.dot")
    for argv in (["cycle", "--family", "cycle,3"],
                 ["path", "--family", "complete,4", "--from", "0", "--to", "3"]):
        code, out, err = run(capsys, *argv, "--dot", dot)
        assert (code, out) == (4, "") and err.startswith("error: ") and "x.dot" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["path", "--family", "complete,4"],
         "biphole path: error: the following arguments are required: --from, --to\n"),
        (["frobnicate"], "biphole: error: argument command: invalid choice: 'frobnicate'"),
        (["sweep", "--jobs", "x"], "biphole sweep: error: argument --jobs: invalid int value: 'x'\n"),
    ],
    ids=["missing-option", "unknown-subcommand", "bad-int"],
)
def test_usage_errors_exit_4(capsys, argv, message):
    # Exit 2 is the connectivity precondition's; a usage error is bad input.
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("usage: biphole") and message in err


def test_help_and_version_exit_0(capsys):
    for flag in ("--help", "--version"):
        code, out, err = run(capsys, flag)
        assert code == 0 and out and err == ""


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["alpha", "--graph6", "C~", "--family", "cycle,4"], None,
         "give at most one of --graph6, --edges, --family"),
        (["alpha", "--family", "cycle,x"], None,
         "bad family parameters: invalid literal for int() with base 10: 'x'"),
        (["alpha"], "\n", "no graph given and stdin is empty"),
        (["sweep", "--random", "1,5,1/2"], None,
         "--random wants COUNT,N,P,SEED (P like 1/2)"),
        (["sweep", "--random", "1,5,1/2/3,0"], None, "probability must look like 1/2"),
        (["sweep"], None, "give exactly one of --enumerate, --random, --graph6-file"),
        (["sweep", "--enumerate", "3", "--random", "1,5,1/2,0"], None,
         "give exactly one of --enumerate, --random, --graph6-file"),
    ],
    ids=["two-inputs", "family-params", "empty-stdin", "random-arity",
         "random-probability", "no-source", "two-sources"],
)
def test_input_errors_exit_4(capsys, monkeypatch, argv, stdin, message):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_check_command(capsys):
    code, out, _ = run(
        capsys, "check", "--family", "complete,4", "--conditions", "dirac,my"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions"]["dirac"]["holds"] is True
    assert doc["conditions"]["my"]["holds"] is True

    code, out, _ = run(capsys, "check", "--family", "cycle,5", "--conditions", "my")
    doc = json.loads(out)
    rep = doc["conditions"]["my"]
    assert rep["holds"] is False
    assert rep["parameters"]["min_degree"] == 2
    assert rep["parameters"]["alpha_tilde"] == 3

    code, out, _ = run(capsys, "check", "--family", "petersen", "--conditions", "zhou")
    assert json.loads(out)["conditions"]["zhou"]["holds"] is False


def test_check_unknown_condition(capsys):
    code, _, err = run(
        capsys, "check", "--family", "complete,4", "--conditions", "nope"
    )
    assert code == 4 and "dirac" in err


def test_sweep_enumerate(capsys):
    code, out, _ = run(
        capsys, "sweep", "--enumerate", "4", "--properties", "alpha-oracle"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["properties"]["alpha-oracle"]["checked"] == 64
    assert doc["failures"] == []


def test_sweep_random_with_jobs(capsys):
    code, out, _ = run(
        capsys,
        "sweep",
        "--random", "30,8,1/2,42",
        "--properties", "heavy-cycle,g6-roundtrip",
        "--jobs", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["properties"]["g6-roundtrip"]["checked"] == 30
    assert doc["failures"] == []


def test_sweep_random_integer_probability(capsys):
    # P given as a bare integer: 1 draws complete graphs, 0 edgeless ones.
    for p, fan in (("1", 3), ("0", 0)):
        code, out, _ = run(
            capsys, "sweep", "--random", f"3,5,{p},7", "--properties", "fan-ham"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == f"random:3,5,{p},7"
        assert doc["properties"]["fan-ham"] == {"checked": fan, "skipped": 3 - fan, "failures": 0}


def test_sweep_jobs_below_one_exit_4(capsys):
    for jobs in ("0", "-5"):
        code, out, err = run(
            capsys,
            "sweep", "--enumerate", "3", "--properties", "alpha-oracle",
            "--jobs", jobs,
        )
        assert code == 4 and out == ""
        assert err == f"error: jobs must be at least 1; got {jobs}\n"


def test_sweep_enumerate_above_gate_exit_4(capsys):
    # The gate answers before the 2^(n choose 2) mask count is built.
    for n in ("8", "200000"):
        code, out, err = run(capsys, "sweep", "--enumerate", n)
        assert code == 4 and out == ""
        assert err == "error: enumeration gated at n <= 7\n"


def test_sweep_graph6_file(tmp_path, capsys):
    lines = [write_graph6(complete(n)) for n in (3, 4, 5)]
    f = tmp_path / "corpus.g6"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "sweep", "--graph6-file", str(f), "--properties", "heavy-path"
    )
    assert code == 0
    assert json.loads(out)["properties"]["heavy-path"]["checked"] == 3


def test_sweep_graph6_file_source_is_its_base_name(tmp_path, capsys, monkeypatch):
    # The summary names the corpus file, not the path it was read from, so
    # one corpus prints one summary wherever it lies.
    text = "\n".join(write_graph6(complete(n)) for n in (3, 4, 5)) + "\n"
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        (tmp_path / d / "c.g6").write_text(text, encoding="utf-8")
    outs = [run(capsys, "sweep", "--graph6-file", str(tmp_path / d / "c.g6"))
            for d in ("a", "b")]
    monkeypatch.chdir(tmp_path / "a")
    outs.append(run(capsys, "sweep", "--graph6-file", "c.g6"))
    assert outs[0] == outs[1] == outs[2]
    code, out, _ = outs[0]
    assert code == 0 and json.loads(out)["source"] == "file:c.g6"


def test_sweep_unknown_property(capsys):
    code, _, err = run(capsys, "sweep", "--enumerate", "3", "--properties", "zzz")
    assert code == 4 and "heavy-cycle" in err


def test_cli_deterministic(capsys):
    first = run(capsys, "alpha", "--family", "petersen", "--certificate")
    second = run(capsys, "alpha", "--family", "petersen", "--certificate")
    assert first == second


def test_sweep_failure_exit_and_dump(capsys, monkeypatch):
    import biphole.sweep as sweep_mod

    def always_fails(g, facts):
        return [{"detail": "synthetic"}]

    monkeypatch.setitem(sweep_mod.PROPERTIES, "always-fails", always_fails)
    code, out, _ = run(
        capsys, "sweep", "--enumerate", "3", "--properties", "always-fails"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["properties"]["always-fails"]["failures"] == 8
    record = doc["failures"][0]
    assert record["detail"] == "synthetic"
    parse_graph6(record["graph6"])  # replayable counterexample line


def test_cycle_and_path_verify_build_one_certificate(capsys, monkeypatch):
    # The commands run the public constructions, each of which builds the
    # certificate once; the CLI computes no hole-number of its own.
    import biphole.cli as cli_mod
    import biphole.cycles as cycles_mod
    import biphole.paths as paths_mod

    calls = []

    def forbidden(g):
        raise AssertionError("second hole-number computation")

    for mod in (cycles_mod, paths_mod):
        original = mod.bipartite_hole_number

        def counted(g, original=original, where=mod.__name__):
            calls.append((where, g.n))
            return original(g)

        monkeypatch.setattr(mod, "bipartite_hole_number", counted)
    monkeypatch.setattr(cli_mod, "bipartite_hole_number", forbidden)
    monkeypatch.setattr(cli_mod, "hole_number", forbidden)
    code, out, _ = run(capsys, "cycle", "--family", "complete,6", "--verify")
    assert code == 0 and sorted(map(int, out.split())) == list(range(6))
    code, out, _ = run(
        capsys, "path", "--family", "complete,5", "--from", "0", "--to", "4", "--verify"
    )
    assert code == 0 and out.split() == ["0", "1", "2", "3", "4"]
    assert calls == [("biphole.cycles", 6), ("biphole.paths", 5)]


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
def test_failed_verification_exits_1(capsys, monkeypatch, verify):
    # Every cycle and path is verified before it is printed, with or
    # without --verify.
    import biphole.cycles as cycles_mod
    import biphole.paths as paths_mod

    monkeypatch.setattr(cycles_mod, "verify_heavy_cycle", lambda *args: False)
    monkeypatch.setattr(paths_mod, "verify_heavy_path", lambda *args: False)
    code, out, err = run(capsys, "cycle", "--family", "complete,6", *verify)
    assert (code, out) == (1, "")
    assert err == "internal error: constructed cycle failed validation\n"
    code, out, err = run(
        capsys, "path", "--family", "complete,5", "--from", "0", "--to", "4", *verify
    )
    assert (code, out) == (1, "")
    assert err == "internal error: constructed path failed validation\n"
