import hashlib
import io
import os
import subprocess
import sys
import time
from functools import partial
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coupled_blocks
from twoclosure import coloring, decider, oracle
from twoclosure.cli import main
from twoclosure.coloring import orb2
from twoclosure.decider import zel
from twoclosure.fixtures import fixture_example1, fixture_example2, random_abelian_cyclic, random_regular_abelian
from twoclosure.groupfile import parse_group, serialize_group
from twoclosure.oracle import SearchLimits, closure_order, color_automorphisms, two_closure
from twoclosure.perm import PermGroup, Permutation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_group(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_decide_closed_group_exits_zero(tmp_path, capsys):
    path = write_group(tmp_path, "c4.grp", "degree 4\ngen (0 1 2 3)\n")
    code, out, _ = run(capsys, "decide", path)
    assert code == 0
    assert out.splitlines() == [
        "step Validate degree=4 order=4",
        "step TransitiveBase degree=4 order=4",
        "verdict 2-closed",
    ]


def test_decide_example1_exits_one(tmp_path, capsys):
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(2)))
    code, out, _ = run(capsys, "decide", path)
    assert code == 1
    assert out.splitlines() == [
        "step Validate degree=6 order=4",
        "step ZelNotInside degree=6 order=4",
        "verdict not-2-closed",
    ]


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    # some editors start a UTF-8 file with one
    text = serialize_group(fixture_example1(3))
    plain = write_group(tmp_path, "ex1.grp", text)
    marked = tmp_path / "ex1-bom.grp"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert run(capsys, "decide", str(marked)) == run(capsys, "decide", plain)
    assert run(capsys, "decide", plain)[0] == 1


def test_decide_with_oracle_check(tmp_path, capsys):
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(2)))
    code, out, _ = run(capsys, "decide", path, "--oracle-check")
    assert code == 1
    lines = out.splitlines()
    assert "oracle not-2-closed" in lines
    assert "agreement ok" in lines


def test_oracle_disagreement_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("twoclosure.cli.is_2_closed_oracle", lambda group: True)
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(2)))
    code, out, _ = run(capsys, "decide", path, "--oracle-check")
    assert code == 2
    assert out.splitlines()[-3:] == ["verdict not-2-closed", "oracle 2-closed", "agreement MISMATCH"]


def test_decide_renders_detail_fields(tmp_path, capsys):
    path = write_group(tmp_path, "mix.grp", "degree 5\ngen (0 1)\ngen (2 3 4)\n")
    code, out, _ = run(capsys, "decide", path)
    assert code == 0
    assert "step SylowSplit degree=5 order=6 primes=2,3" in out.splitlines()


def test_decide_parse_error_exits_two(tmp_path, capsys):
    path = write_group(tmp_path, "bad.grp", "degree 2\ngen (0 1 2)\n")
    code, out, err = run(capsys, "decide", path)
    assert code == 2
    assert err.startswith("error:")


def test_decide_precondition_failure_exits_two(tmp_path, capsys):
    klein = "degree 4\ngen (0 1)(2 3)\ngen (0 2)(1 3)\n"
    path = write_group(tmp_path, "klein.grp", klein)
    code, _, err = run(capsys, "decide", path)
    assert code == 2
    assert "constituent" in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "decide", str(tmp_path / "absent.grp"))
    assert code == 2
    assert err.startswith("error:")


def test_closure_output_is_a_group_file(tmp_path, capsys):
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(2)))
    code, out, _ = run(capsys, "closure", path)
    assert code == 0
    assert out.splitlines()[0] == "# order 8"
    assert parse_group(out).order() == 8


def test_closure_order_without_enumeration(tmp_path, capsys, monkeypatch):
    # |Sym(10)| = 3628800 is above the element cap: the order must come
    # from the search's generators, not from listing the closure
    def no_enumeration(self):
        raise AssertionError("closure elements enumerated")

    monkeypatch.setattr(PermGroup, "elements", no_enumeration)
    path = write_group(tmp_path, "sym10.grp", "degree 10\ngen (0 1)\ngen (0 1 2 3 4 5 6 7 8 9)\n")
    code, out, _ = run(capsys, "closure", path)
    assert code == 0
    assert out.splitlines()[:2] == ["# order 3628800", "degree 10"]


def _indep_z2(k):
    return PermGroup(2 * k, [Permutation.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)])


@pytest.mark.parametrize("g", [fixture_example1(5), fixture_example2(3), _indep_z2(20)],
                         ids=["example1(5)", "example2(3)", "indep 20xZ2"])
def test_closure_of_an_in_class_group_neither_colors_nor_searches(tmp_path, capsys, monkeypatch, g):
    # the default degree bound of 14 would refuse these before either path,
    # so the CLI's closure runs under a bound that admits them
    limits = SearchLimits(max_degree=40)
    order = closure_order(PermGroup(g.degree, color_automorphisms(orb2(g), limits)))

    def refuse(*args):
        raise AssertionError("an in-class closure built the pair coloring or searched")

    monkeypatch.setattr("twoclosure.cli.two_closure", partial(two_closure, limits=limits))
    monkeypatch.setattr(oracle, "orb2", refuse)
    monkeypatch.setattr(oracle, "color_automorphisms", refuse)
    code, out, _ = run(capsys, "closure", write_group(tmp_path, "g.grp", serialize_group(g)))
    assert code == 0
    assert out.splitlines()[:2] == [f"# order {order}", f"degree {g.degree}"]


def test_oracle_check_never_takes_the_pairwise_closure(tmp_path, capsys, monkeypatch):
    groups = [fixture_example1(2), fixture_example1(3), fixture_example2(2),
              *(random_abelian_cyclic(seed, 12) for seed in range(10))]
    paths = [write_group(tmp_path, f"g{i}.grp", serialize_group(g)) for i, g in enumerate(groups)]
    before = [run(capsys, "decide", path, "--oracle-check") for path in paths]
    assert {code for code, _, _ in before} == {0, 1}

    def refuse(group):
        raise AssertionError("the oracle used the decider's coordinates")

    monkeypatch.setattr(oracle, "_pairwise_closure", refuse)
    assert [run(capsys, "decide", path, "--oracle-check") for path in paths] == before


def test_zel_output_matches_library(tmp_path, capsys):
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(2)))
    code, out, _ = run(capsys, "zel", path)
    assert code == 0
    assert out.splitlines()[0] == "# order 8"


def test_zel_at_a_size_enumeration_cannot_reach(tmp_path, capsys):
    g = fixture_example1(101)
    path = write_group(tmp_path, "ex1.grp", serialize_group(g))
    start = time.perf_counter()
    code, out, _ = run(capsys, "zel", path)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[0] == "# order 1030301"
    assert parse_group(out) == zel(g)


def test_zel_runs_the_coordinates_once(tmp_path, capsys, monkeypatch):
    calls = 0
    coordinates = decider._coordinates

    def counted(group):
        nonlocal calls
        calls += 1
        return coordinates(group)

    monkeypatch.setattr(decider, "_coordinates", counted)
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(5)))
    code, _, _ = run(capsys, "zel", path)
    assert code == 0
    assert calls == 1


def test_zel_order_line_is_the_order_of_zel(tmp_path, capsys):
    groups = [fixture(p) for fixture in (fixture_example1, fixture_example2) for p in (2, 3, 5, 7)]
    groups += [random_abelian_cyclic(seed, 30) for seed in range(300)]
    checked = 0
    for g in groups:
        if len(g.orbits()) == 1:
            continue
        path = write_group(tmp_path, "g.grp", serialize_group(g))
        code, out, _ = run(capsys, "zel", path)
        assert code == 0
        expected = decider._order(decider._coordinates(zel(g)))
        assert out.splitlines()[0] == f"# order {expected}", serialize_group(g)
        checked += 1
    assert checked > 250


def test_zel_outside_the_class_exits_two(tmp_path, capsys):
    path = write_group(tmp_path, "klein.grp", "degree 5\ngen (0 1)(2 3)\ngen (0 2)(1 3)\n")
    code, out, err = run(capsys, "zel", path)
    assert code == 2
    assert out == ""
    assert "constituent" in err


def test_zel_on_transitive_group_exits_two(tmp_path, capsys):
    path = write_group(tmp_path, "c4.grp", "degree 4\ngen (0 1 2 3)\n")
    code, _, err = run(capsys, "zel", path)
    assert code == 2
    assert "transitive" in err


def test_orbits_output(tmp_path, capsys):
    path = write_group(tmp_path, "ex1.grp", serialize_group(fixture_example1(2)))
    code, out, _ = run(capsys, "orbits", path)
    assert code == 0
    assert out == "0 1\n2 3\n4 5\n"


# sha256 over the `orbits` stdout of each family, one run per group in turn
ORBITS_DIGESTS = [
    pytest.param(lambda: (random_abelian_cyclic(s, 24) for s in range(50)),
                 "d6f25b3c67e745b8fe3c032b651cf7c9d2553107595456b00f3d378ea3c30a67",
                 id="random_abelian_cyclic(s, 24)"),
    pytest.param(lambda: (random_regular_abelian(s, 60) for s in range(50)),
                 "bc72968ceaff19e48b128c177bc99930c4b05761530bfab6f7fb392798fda0bc",
                 id="random_regular_abelian(s, 60)"),
    pytest.param(lambda: (random_coupled_blocks(s, 36) for s in range(50)),
                 "49dfd7a2a6e54ad62d5b3cb07cb72feb7451a2218a1a22807ae680e6d4fdb6f7",
                 id="random_coupled_blocks(s, 36)"),
    pytest.param(lambda: (f(p) for f in (fixture_example1, fixture_example2) for p in (2, 3, 5, 7)),
                 "544aa3ec0a9ee26819aa3277709c1ca043a33e4d2e575cc4f50ab26b0f5cbc14",
                 id="example1, example2"),
    pytest.param(lambda: (PermGroup(0), PermGroup(9)),
                 "11104d1c67093f2d6d6f7354056aa9e8335bc9a82e877b6c389d7686bf274853",
                 id="trivial"),
]


@pytest.mark.parametrize("groups, expected", ORBITS_DIGESTS)
def test_orbits_output_is_unchanged(tmp_path, capsys, groups, expected):
    digest = hashlib.sha256()
    for g in groups():
        code, out, err = run(capsys, "orbits", write_group(tmp_path, "g.grp", serialize_group(g)))
        assert (code, err) == (0, ""), serialize_group(g)
        digest.update(out.encode())
        digest.update(b"\0")
    assert digest.hexdigest() == expected


def test_orb2_output(tmp_path, capsys):
    path = write_group(tmp_path, "c4.grp", "degree 4\ngen (0 1 2 3)\n")
    code, out, _ = run(capsys, "orb2", path)
    assert code == 0
    g = parse_group("degree 4\ngen (0 1 2 3)\n")
    assert out == orb2(g).render() + "\n"


@pytest.mark.parametrize("command", ("orbits", "orb2"))
def test_degree_zero_prints_no_lines(tmp_path, capsys, command):
    path = write_group(tmp_path, "empty.grp", "degree 0\n")
    assert run(capsys, command, path) == (0, "", "")


def test_orb2_degree_bound_is_checked_before_the_matrix(monkeypatch, tmp_path, capsys):
    # the n x n matrix of a huge group must never be allocated; a group one
    # point above the bound keeps a missing check cheap, and its generators
    # are read only after the matrix is built
    class AboveTheBound:
        degree = coloring.MAX_COLORING_DEGREE + 1

        @property
        def generators(self):
            raise AssertionError("orb2 built a matrix above the degree bound")

    with pytest.raises(coloring.ColoringTooLarge):
        orb2(AboveTheBound())
    path = write_group(tmp_path, "wide.grp", f"degree {AboveTheBound.degree}\ngen (0 1)\n")
    code, out, err = run(capsys, "orb2", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exceeds the pair coloring bound" in err
    # the bound itself is colored
    monkeypatch.setattr(coloring, "MAX_COLORING_DEGREE", 4)
    assert orb2(PermGroup(4)).num_colors == 16
    with pytest.raises(coloring.ColoringTooLarge):
        orb2(PermGroup(5))


def test_example_subcommands_emit_parseable_fixtures(capsys):
    code, out, _ = run(capsys, "example1", "2")
    assert code == 0
    assert parse_group(out) == fixture_example1(2)

    code, out, _ = run(capsys, "example2", "3")
    assert code == 0
    assert parse_group(out).degree == 18


def test_module_runs_as_a_script():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "twoclosure.cli", "example1", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert parse_group(result.stdout) == fixture_example1(2)


def test_example_subcommand_rejects_non_prime(capsys):
    code, _, err = run(capsys, "example1", "4")
    assert code == 2
    assert "not prime" in err


@pytest.mark.parametrize("argv", (
    ("example1", "333337"),
    ("example2", "166667"),
    ("random", "--seed", "1", "--max-degree", "1000001"),
))
def test_fixture_above_the_degree_limit_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "exceeds the limit 1000000" in err


def test_random_at_the_degree_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "random", "--seed", "1", "--max-degree", "1000000")
    assert code == 0
    assert parse_group(out) == random_abelian_cyclic(1, 1_000_000)


def test_random_subcommand_is_deterministic(capsys):
    code, first, _ = run(capsys, "random", "--seed", "5", "--max-degree", "9")
    assert code == 0
    code, second, _ = run(capsys, "random", "--seed", "5", "--max-degree", "9")
    assert first == second
    assert parse_group(first) == random_abelian_cyclic(5, 9)


@pytest.mark.parametrize("flags", ((), ("--regular",)), ids=["cyclic", "regular"])
def test_random_with_a_negative_max_degree_exits_two(capsys, flags):
    code, out, err = run(capsys, "random", "--seed", "0", "--max-degree", "-1", *flags)
    assert code == 2
    assert out == ""
    assert "need max_degree >=" in err


def test_random_regular_flag(capsys):
    code, out, _ = run(capsys, "random", "--seed", "1", "--max-degree", "8", "--regular")
    assert code == 0
    assert len(parse_group(out).orbits()) == 1


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("degree 4\ngen (0 1 2 3)\n"))
    code, out, _ = run(capsys, "decide", "-")
    assert code == 0
    assert "verdict 2-closed" in out


@pytest.mark.parametrize("command", ("decide", "zel", "orbits"))
@pytest.mark.parametrize("degree", ("100000000000000000000", "50000000"))
def test_huge_degree_header_exits_two(tmp_path, capsys, command, degree):
    path = write_group(tmp_path, "huge.grp", f"degree {degree}\n")
    code, out, err = run(capsys, command, path)
    assert code == 2
    assert out == ""
    assert "exceeds the limit" in err


def test_huge_point_exits_two_with_its_position(tmp_path, capsys):
    path = write_group(tmp_path, "huge.grp", "degree 3\ngen (0 " + "1" * 5000 + ")\n")
    code, out, err = run(capsys, "decide", path)
    assert code == 2
    assert out == ""
    assert "line 2, column 8" in err


# degrees either small or past the parser's limit, never slow to decide
_HEADER = st.one_of(
    st.integers(0, 30).map("degree {}".format),
    st.integers(10 ** 7, 10 ** 25).map("degree {}".format),
    st.text(max_size=20),
)
_LINE = st.one_of(
    st.text(max_size=30),
    st.from_regex(r"gen ?(\([0-9][0-9 ,]{0,8}\)){0,3}", fullmatch=True),
    st.from_regex(r"gen ?\[[0-9 ,]{0,20}\]", fullmatch=True),
)
_TEXT = st.builds(lambda header, lines: "\n".join([header, *lines]), _HEADER, st.lists(_LINE, max_size=4))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(("decide", "zel", "orbits", "closure")), _TEXT)
def test_arbitrary_text_exits_with_a_code(command, text):
    with mock.patch("sys.stdin", io.StringIO(text)), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main([command, "-"]) in (0, 1, 2)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["decide"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_zel_walks_each_generator_once(tmp_path, capsys, monkeypatch):
    # the '# order' line and the generators' text come from one walk of
    # each generator's cycles
    for g in (fixture_example1(5), random_abelian_cyclic(3, 30)):
        z = zel(g)
        expected = f"# order {z.order()}\n{serialize_group(z)}"
        path = write_group(tmp_path, "g.grp", serialize_group(g))
        walked, cycles = [], Permutation.cycles

        def counted(self):
            walked.append(self)
            return cycles(self)

        with monkeypatch.context() as patch:
            patch.setattr(Permutation, "cycles", counted)
            code, out, _ = run(capsys, "zel", path)
        assert (code, out) == (0, expected)
        assert len(z.generators) > 1 and sorted(walked) == sorted(z.generators), g
