"""The ``python -m repro`` command-line interface."""


import pytest

from repro.__main__ import main

SOURCE = r"""
int main() {
    int n = read_int();
    printf("double=%d\n", n * 2);
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return path


def test_compile_run_roundtrip(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    assert main(["compile", str(source_file), "-o", str(image)]) == 0
    assert main(["run", str(image), "--input", "int:21"]) == 0
    out = capsys.readouterr().out
    assert "double=42" in out
    assert "[exit 0" in out


def test_recompile_wytiwyg(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    assert main(["recompile", str(image), "-o", str(recovered),
                 "--input", "int:5"]) == 0
    assert main(["run", str(recovered), "--input", "int:5"]) == 0
    out = capsys.readouterr().out
    assert "double=10" in out


def test_recompile_binrec(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    main(["recompile", str(image), "-o", str(recovered),
          "--pipeline", "binrec", "--input", "int:5"])
    main(["run", str(recovered), "--input", "int:5"])
    assert "double=10" in capsys.readouterr().out


def test_layout_command(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image),
          "--compiler", "gcc44"])
    assert main(["layout", str(image), "--input", "int:5"]) == 0
    out = capsys.readouterr().out
    assert "fn_" in out and "bytes" in out


def test_multiple_input_runs(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    main(["run", str(image), "--input", "int:1", "/", "int:2"])
    out = capsys.readouterr().out
    assert "double=2" in out and "double=4" in out


def test_bad_input_spec_rejected(source_file, tmp_path, capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    capsys.readouterr()
    assert main(["run", str(image), "--input", "float:1"]) == 2
    _assert_one_line_error(capsys, "run")


@pytest.mark.parametrize("command,spec", [("recompile", "int:abc"),
                                          ("run", "int:")])
def test_non_integer_input_is_one_line(source_file, tmp_path, capsys,
                                       command, spec):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    capsys.readouterr()
    assert main([command, str(image), "--input", spec]) == 2
    _assert_one_line_error(capsys, command)


@pytest.mark.parametrize("command", ["run", "recompile", "layout",
                                     "check"])
def test_missing_image_is_one_line(tmp_path, capsys, command):
    assert main([command, str(tmp_path / "absent.img.json")]) == 2
    _assert_one_line_error(capsys, command)


@pytest.mark.parametrize("command", ["recompile", "layout", "check",
                                     "explain", "serve"])
def test_jobs_flag_rejected(tmp_path, command):
    argv = ([command, "--socket", str(tmp_path / "s.sock")]
            if command == "serve" else
            [command, str(tmp_path / "x.img.json")])
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2


UNDERTRACE = r"""
int main() {
    int buf[16];
    int i;
    int n;
    n = read_int();
    for (i = 0; i < n; i++) buf[i] = i * 7;
    int s = 0;
    for (i = 0; i < n; i++) s += buf[i];
    printf("s=%d\n", s);
    return 0;
}
"""


@pytest.fixture
def undertrace_file(tmp_path):
    path = tmp_path / "under.c"
    path.write_text(UNDERTRACE)
    return path


def test_check_command_reports_coverage_gap(undertrace_file, tmp_path,
                                            capsys):
    image = tmp_path / "under.img.json"
    report_json = tmp_path / "check.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    # Warnings alone exit 0 by default, 1 under --strict.
    assert main(["check", str(image), "--input", "int:3",
                 "--json", str(report_json)]) == 0
    out = capsys.readouterr().out
    assert "coverage-gap" in out
    assert "warning" in out
    import json as _json
    doc = _json.loads(report_json.read_text())
    assert doc["counts"]["warning"] >= 1
    assert main(["check", str(image), "--input", "int:3",
                 "--strict"]) == 1


def test_check_command_clean_program_exits_zero(source_file, tmp_path,
                                                capsys):
    image = tmp_path / "prog.img.json"
    main(["compile", str(source_file), "-o", str(image)])
    assert main(["check", str(image), "--input", "int:5",
                 "--strict"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_recompile_check_strict_aborts(undertrace_file, tmp_path,
                                       capsys):
    image = tmp_path / "under.img.json"
    recovered = tmp_path / "rec.img.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    assert main(["recompile", str(image), "-o", str(recovered),
                 "--input", "int:3", "--check", "strict"]) == 1
    err = capsys.readouterr().err
    assert "static check gate" in err
    assert not recovered.exists()


def test_explain_command_chains_widening(undertrace_file, tmp_path,
                                         capsys):
    """The provenance query names the coverage-gap finding and the
    widening event behind the grown variable."""
    image = tmp_path / "under.img.json"
    main(["compile", str(undertrace_file), "-o", str(image)])
    assert main(["explain", str(image), "--input", "int:3",
                 "--widen"]) == 0
    out = capsys.readouterr().out
    assert "coverage-gap" in out
    assert "widened to cover" in out
    assert "seeded by traced ref" in out
    # An unknown --var spec reports the recovered names and exits 1.
    assert main(["explain", str(image), "--input", "int:3",
                 "--var", "fn_0:sv_m4"]) == 1
    assert "matches no recovered variable" in capsys.readouterr().err


def test_ledger_flag_writes_jsonl(source_file, tmp_path):
    import json as _json
    image = tmp_path / "prog.img.json"
    ledger = tmp_path / "events.jsonl"
    main(["compile", str(source_file), "-o", str(image)])
    from repro import obs
    try:
        assert main(["--ledger", str(ledger), "recompile", str(image),
                     "-o", str(tmp_path / "rec.img.json"),
                     "--input", "int:5"]) == 0
    finally:
        obs.disable_ledger()
    docs = obs.read_events(ledger)
    kinds = {d["kind"] for d in docs}
    assert {"run.start", "run.finish", "frame.var.seed",
            "validate.verdict"} <= kinds
    for d in docs:
        _json.dumps(d)  # every line round-trips


def test_obs_diff_command(tmp_path, capsys):
    import json as _json
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = {"version": 2, "spans": [],
            "metrics": {"counters": {"store.miss": 2},
                        "gauges": {}, "histograms": {}, "timers": {},
                        "profiles": {}}}
    other = {"version": 2, "spans": [],
             "metrics": {"counters": {}, "gauges": {},
                         "histograms": {}, "timers": {},
                         "profiles": {}}}
    a.write_text(_json.dumps(base))
    b.write_text(_json.dumps(other))
    assert main(["obs", "diff", str(a), str(b)]) == 0
    assert "store.miss" in capsys.readouterr().out
    assert main(["obs", "diff", str(a), str(b), "--json"]) == 0
    doc = _json.loads(capsys.readouterr().out)
    assert doc["counters"]["removed"] == {"store.miss": 2}


def _bench_json(path, mean):
    import json as _json
    path.write_text(_json.dumps({"benchmarks": [
        {"name": "bench_a", "stats": {"mean": mean, "median": mean},
         "extra_info": {}}]}))
    return str(path)


def test_obs_regress_command_gates(tmp_path, capsys):
    base = _bench_json(tmp_path / "base.json", 1.0)
    ok = _bench_json(tmp_path / "ok.json", 1.2)
    slow = _bench_json(tmp_path / "slow.json", 2.0)
    assert main(["obs", "regress", "--baseline", base,
                 "--fresh", ok]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["obs", "regress", "--baseline", base,
                 "--fresh", slow, "--tolerance", "1.5"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "FAIL" in out


# -- typed errors: one line on stderr, exit 2, never a traceback -------------


def _assert_one_line_error(capsys, command):
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"repro {command}: "), err
    assert "\n" not in err and "Traceback" not in err


def test_compile_error_is_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main( {")
    assert main(["compile", str(bad), "-o",
                 str(tmp_path / "bad.img.json")]) == 2
    _assert_one_line_error(capsys, "compile")


def test_submit_to_missing_socket_is_one_line(tmp_path, capsys):
    assert main(["submit", "--socket", str(tmp_path / "absent.sock"),
                 "--ping"]) == 2
    _assert_one_line_error(capsys, "submit")


def test_malformed_image_is_one_line(tmp_path, capsys):
    doc = tmp_path / "not-an-image.json"
    doc.write_text('{"x":1}')
    assert main(["run", str(doc)]) == 2
    _assert_one_line_error(capsys, "run")
