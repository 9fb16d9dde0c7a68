import re
import sys

import pytest

from dld.cli import main

DEMO_CONFIG = """\
# worked-example universe
spots=r,s,t,u
fields=up,dn
atoms=10
modulus=11
max_steps=100
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(DEMO_CONFIG)
    return str(path)


def test_normalize(capsys, config):
    assert main(["normalize", "--config", config,
                 "({s:#0} + {s:#1}) <| {s:#2}"]) == 0
    assert capsys.readouterr().out == "s:#2\n"
    assert main(["normalize", "--config", config, "0 <| 0"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["normalize", "--config", config, "{r:#0} + {r:#0}"]) == 0
    assert capsys.readouterr().out == "r:#0\n"


def test_normalize_requires_universe(capsys):
    assert main(["normalize", "0"]) == 1
    assert "universe not fully declared" in capsys.readouterr().err
    assert "modulus" in _user_error(capsys, [
        "normalize", "--spots", "1", "--fields", "1", "--atoms", "1",
        "--modulus", "x", "0"])


@pytest.mark.parametrize("atoms", ["atoms=#0,#1", "atoms = #0, #1"])
def test_config_atom_names_start_with_hash(capsys, tmp_path, atoms):
    path = tmp_path / "named.cfg"
    path.write_text(f"# atoms named in full\n  # indented comment\n"
                    f"spots=s\nfields=f\n{atoms}\nmodulus=2\n")
    assert main(["normalize", "--config", str(path), "{s:#1} <| {s:#0}"]) == 0
    assert capsys.readouterr().out == "s:#0\n"
    assert main(["normalize", "--config", str(path), "{s:#2}"]) == 1
    assert "#2" in capsys.readouterr().err


def test_count_flags_may_be_padded(capsys):
    # a count with blanks around it generates names, as in a config file
    assert main(["normalize", "--spots", " 2", "--fields", "1", "--atoms", "1",
                 "--modulus", "2", "t:#0"]) == 0
    assert capsys.readouterr().out == "t:#0\n"


def test_parse_error_reported(capsys, config):
    assert main(["normalize", "--config", config, "{s:#0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eval(capsys, config, tmp_path):
    state = tmp_path / "state.txt"
    state.write_text("0\n")
    assert main(["eval", "--config", config, "--state", str(state),
                 "--actions", "getatobj(r)"]) == 0
    assert capsys.readouterr().out == "getatobj(r) T r:#0\n"

    state.write_text("r:#0, #0.up:#1, #2.up:#3, #3.dn:#2\n")
    assert main(["eval", "--config", config, "--state", str(state),
                 "--actions", "fgc"]) == 0
    assert capsys.readouterr().out.strip().endswith("r:#0, #0.up:#1")

    state.write_text("r:#0, s:#0, #0.up:#1, t:#2, #2.up:#3\n")
    assert main(["eval", "--config", config, "--state", str(state),
                 "--actions", "udsetspot(s,t)"]) == 0
    assert capsys.readouterr().out.strip() == \
        "udsetspot(s,t) T s:#2, t:#2, #2.up:#3"


def test_run_exit_codes(capsys, config, tmp_path):
    init = tmp_path / "init.txt"
    init.write_text("0\n")
    spec = tmp_path / "spec.thread"

    spec.write_text("main = S\n")
    assert main(["run", "--config", config, "--spec", str(spec),
                 "--init", str(init)]) == 0
    capsys.readouterr()

    spec.write_text("main = D\n")
    assert main(["run", "--config", config, "--spec", str(spec),
                 "--init", str(init)]) == 2
    capsys.readouterr()

    spec.write_text("main = X\nX = tau . X\n")
    assert main(["run", "--config", config, "--spec", str(spec),
                 "--init", str(init), "--max-steps", "5"]) == 3
    out = capsys.readouterr().out
    assert out.strip().endswith("budgetexhausted")


def test_run_output_modes(capsys, config, tmp_path):
    init = tmp_path / "init.txt"
    init.write_text("0\n")
    spec = tmp_path / "spec.thread"
    spec.write_text("main = getatobj(r) ; S\n")

    assert main(["run", "--config", config, "--spec", str(spec),
                 "--init", str(init), "--output", "final"]) == 0
    assert capsys.readouterr().out == "r:#0\n"

    assert main(["run", "--config", config, "--spec", str(spec),
                 "--init", str(init), "--output", "machine"]) == 0
    assert capsys.readouterr().out == "getatobj(r) T r:#0\nstop\n"


BLOCKED_OUTPUTS = {
    "trace": "init 0\ngetatobj(r) T r:#0\nfgc B r:#0\ndeadlock\n",
    "machine": "getatobj(r) T r:#0\nfgc B r:#0\ndeadlock\n",
    "final": "r:#0\n",
}


@pytest.mark.parametrize("output", sorted(BLOCKED_OUTPUTS))
def test_run_blocked_step_shows_the_state_before_the_call(capsys, config,
                                                          tmp_path, output):
    init = tmp_path / "init.txt"
    init.write_text("0\n")
    spec = tmp_path / "spec.thread"
    spec.write_text("main = getatobj(r) ; fgc ; S\n")
    assert main(["run", "--config", config, "--spec", str(spec),
                 "--init", str(init), "--service", "plain",
                 "--output", output]) == 2
    assert capsys.readouterr().out == BLOCKED_OUTPUTS[output]


def test_check_summary_line(capsys):
    assert main(["check", "axioms", "--cases", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert re.fullmatch(r"checked=\d+ passed=\d+ failed=\d+", lines[-1])


def test_check_thm3_small(capsys):
    assert main(["check", "thm3", "--spots", "1", "--fields", "1",
                 "--atoms", "1", "--modulus", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert re.fullmatch(r"checked=\d+ passed=\d+ failed=0", out[-1])

    # non-tight states expose the freshness counterexample family
    assert main(["check", "thm3", "--spots", "1", "--fields", "1",
                 "--atoms", "2", "--modulus", "2",
                 "--include-nontight"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "FAIL getatobj(s) 0 rewrite=s:#0/T set=s:#1/T tight=false"
    assert all(line.startswith("FAIL ") and line.endswith(" tight=false")
               for line in out[:-1])
    assert out[-1] == "checked=15477 passed=15369 failed=108"


def _user_error(capsys, argv) -> str:
    """Run argv, expecting exit 1 and a one-line `error:` report."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


def test_unreadable_input_files_are_user_errors(capsys, config, tmp_path):
    missing = str(tmp_path / "missing.txt")
    init = tmp_path / "init.txt"
    init.write_text("0\n")
    spec = tmp_path / "spec.thread"
    spec.write_text("main = S\n")
    assert missing in _user_error(capsys, ["normalize", "--config", missing, "0"])
    assert missing in _user_error(capsys, [
        "eval", "--config", config, "--state", missing, "--actions", "fgc"])
    assert missing in _user_error(capsys, [
        "run", "--config", config, "--spec", missing, "--init", str(init)])
    assert missing in _user_error(capsys, [
        "run", "--config", config, "--spec", str(spec), "--init", missing])
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe0\n")
    assert "not UTF-8" in _user_error(capsys, [
        "eval", "--config", config, "--state", str(binary), "--actions", "fgc"])


@pytest.mark.parametrize("suite,cases", [("axioms", "-1"), ("tsu", "-5"),
                                         ("thm1", "-5")])
def test_negative_case_counts_are_rejected(capsys, suite, cases):
    assert "--cases" in _user_error(capsys, ["check", suite, "--cases", cases])


@pytest.mark.parametrize("suite", ["axioms", "thm1"])
def test_random_suites_run_on_more_links_than_an_index_holds(capsys, suite):
    # 3 atoms and a modulus near 10^19: more value links than sys.maxsize
    code = main(["check", suite, "--modulus", "10000000000000000051",
                 "--cases", "10"])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in err
    assert out.splitlines()[-1].startswith("checked=")


def test_deep_terms(capsys, config):
    limit = sys.getrecursionlimit()
    chain = " + ".join(f"{{s:#{i % 10}}}" for i in range(3000))
    assert main(["normalize", "--config", config, chain]) == 0
    assert capsys.readouterr().out == \
        ", ".join(f"s:#{i}" for i in range(10)) + "\n"
    nested = "(" * 1200 + "{s:#0}" + ")" * 1200
    assert "nested too deeply" in _user_error(
        capsys, ["normalize", "--config", config, nested])
    assert sys.getrecursionlimit() == limit


def test_scripts_of_any_length_run(capsys, config, tmp_path):
    limit = sys.getrecursionlimit()
    init = tmp_path / "init.txt"
    init.write_text("0\n")
    spec = tmp_path / "spec.thread"
    for body in ["; ".join(["clrspot(s)"] * 5000), "tau." * 5000 + "S"]:
        spec.write_text(f"main = {body}\n")
        assert main(["run", "--config", config, "--spec", str(spec),
                     "--init", str(init), "--max-steps", "10000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5002 and out[-1] == "stop"
    # `?:` nests on the stack: too deep is a parse error, not a traceback
    spec.write_text("main = " + "clrspot(s) ? " * 5000 + "S"
                    + " : S" * 5000 + "\n")
    assert "nested too deeply" in _user_error(capsys, [
        "run", "--config", config, "--spec", str(spec), "--init", str(init)])
    assert sys.getrecursionlimit() == limit


def test_roundtrip_all_small_linkages():
    from dld.checks import enumerate_linkages
    from dld.parsing import parse_linkage
    from dld.universe import small_universe
    u = small_universe(2, 1, 2, 2)
    for l in enumerate_linkages(u):
        assert parse_linkage(l.canonical_text(), u) == l


@pytest.mark.parametrize("settings,flags,named", [
    ("modulus=abc", [], "modulus"),
    ("modulus=11\nmax_steps=abc", [], "max_steps"),
    ("modulus=11\nmax_steps=-1", [], "max_steps"),
    ("modulus=11\noutput=bogus", [], "output"),
    ("modulus=11", ["--max-steps", "-3"], "--max-steps"),
    # a bad flag value is an error like the same config value: exit 1,
    # not argparse's 2, which run uses for deadlock
    ("modulus=11", ["--max-steps", "abc"], "--max-steps"),
    ("modulus=11", ["--modulus", "abc"], "modulus"),
    ("modulus=11\nservice=bogus", [], "service"),
    ("modulus=11", ["--service", "bogus"], "service"),
    ("modulus=11", ["--output", "bogus"], "output"),
    # an empty flag value is an error too, not a fall back to the default
    ("modulus=11", ["--service", ""], "service"),
    ("modulus=11", ["--output", ""], "output"),
])
def test_bad_run_settings_are_user_errors(capsys, tmp_path, settings, flags,
                                          named):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"spots=r\nfields=up\natoms=2\n{settings}\n")
    init = tmp_path / "init.txt"
    init.write_text("0\n")
    spec = tmp_path / "spec.thread"
    spec.write_text("main = getatobj(r) ; S\n")
    err = _user_error(capsys, ["run", "--config", str(cfg), "--spec", str(spec),
                               "--init", str(init), *flags])
    assert named in err
    assert capsys.readouterr().out == ""


def test_bad_check_bounds_are_user_errors(capsys):
    assert "--spots" in _user_error(capsys, ["check", "thm2", "--spots", "abc"])
    assert "--atoms" in _user_error(capsys, ["check", "thm2", "--atoms", "-1"])
    assert "prime" in _user_error(capsys, ["check", "thm2", "--modulus", "0"])
    assert "--modulus" in _user_error(capsys,
                                      ["check", "thm2", "--modulus", "abc"])
    assert "--cases" in _user_error(capsys, ["check", "tsu", "--cases", "abc"])
    assert "--seed" in _user_error(capsys, ["check", "tsu", "--seed", "abc"])
    # universes whose exhaustive suites could not finish
    assert "16,777,216 states" in _user_error(capsys,
                                              ["check", "thm2", "--atoms", "3"])
    assert "6,000,025 states" in _user_error(capsys, [
        "check", "thm3", "--spots", "1", "--fields", "1", "--atoms", "1",
        "--modulus", "1000003"])


def test_long_combine_chains_fold_in_linear_time(capsys, tmp_path):
    import time
    path = tmp_path / "wide.cfg"
    path.write_text("spots=s\nfields=f\natoms=10000\nmodulus=2\n")
    chain = " + ".join(f"{{s:#{i}}}" for i in reversed(range(10_000)))
    start = time.perf_counter()
    assert main(["normalize", "--config", str(path), chain]) == 0
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().out == \
        ", ".join(f"s:#{i}" for i in range(10_000)) + "\n"


def _universe_of(u):
    return len(u.spots), len(u.fields), len(u.atoms), u.modulus


@pytest.mark.parametrize("argv,bounds", [
    (["axioms", "--atoms", "4"], (3, 2, 4, 3)),
    (["thm1", "--atoms", "3"], (2, 2, 3, 3)),
    (["thm1", "--spots", "1", "--modulus", "5"], (1, 2, 3, 5)),
    (["thm2", "--fields", "2"], (2, 2, 2, 2)),
    (["thm3", "--spots", "1"], (1, 1, 2, 2)),
    (["gc-cross", "--modulus", "3"], (2, 1, 2, 3)),
])
def test_check_fills_missing_bounds_from_the_suites_own_universe(
        monkeypatch, capsys, argv, bounds):
    from dld.checks import SUITES, Summary
    seen = []

    def spy(u=None, **kwargs):
        seen.append(_universe_of(u))
        return Summary(argv[0])

    monkeypatch.setitem(SUITES, argv[0], spy)
    assert main(["check", *argv]) == 0
    assert seen == [bounds]


def test_suites_default_to_their_declared_universe(monkeypatch):
    from dld import checks
    from dld.universe import small_universe
    seen = []

    def default_universe(suite):
        seen.append(suite)
        return small_universe(1, 1, 1, 2)

    monkeypatch.setattr(checks, "default_universe", default_universe)
    checks.suite_axioms(cases=1)
    checks.suite_thm1(cases=1)
    checks.suite_thm2()
    checks.suite_thm3()
    checks.suite_gc_cross()
    assert seen == ["axioms", "thm1", "thm2", "thm3", "gc-cross"]


@pytest.mark.parametrize("argv,flag", [
    (["thm2", "--cases", "3"], "--cases"),
    (["thm3", "--cases", "3"], "--cases"),
    (["gc-cross", "--cases", "3"], "--cases"),
    (["thm3", "--seed", "1"], "--seed"),
    (["tsu", "--spots", "2"], "--spots"),
    (["tsu", "--fields", "1"], "--fields"),
    (["tsu", "--atoms", "2"], "--atoms"),
    (["tsu", "--modulus", "3"], "--modulus"),
    (["axioms", "--include-nontight"], "--include-nontight"),
    (["thm1", "--include-nontight"], "--include-nontight"),
    (["thm2", "--include-nontight"], "--include-nontight"),
    (["gc-cross", "--include-nontight"], "--include-nontight"),
    (["tsu", "--include-nontight"], "--include-nontight"),
])
def test_check_rejects_flags_the_suite_does_not_take(capsys, argv, flag):
    err = _user_error(capsys, ["check", *argv])
    assert f"{argv[0]} does not take {flag}" in err
    assert capsys.readouterr().out == ""
