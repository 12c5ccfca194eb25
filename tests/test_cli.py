import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from transverse import audit, cli, config, gf, poly
from transverse.cli import (
    DEFAULT_SEED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    InputFileError,
    parse_input,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
F5 = gf.field_create(5)


def write_input(tmp_path, text, name="in.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONIC = "p=5 m=1 n=2\nx0*x2 - x1^2\n"
CUBIC = "p=13 m=1 n=3\nx0^3 + x1^3 + x2^3 + x3^3\n"


class TestParseInput:
    def test_conic_file(self, tmp_path):
        field, X = parse_input(write_input(tmp_path, CONIC))
        assert field.order == 5
        assert (X.ambient, X.degree) == (2, 2)
        assert X.form == poly.parse_form(F5, "x0*x2 + 4*x1^2", 3)

    def test_extension_field_coefficients(self, tmp_path):
        field, X = parse_input(
            write_input(tmp_path, "p=3 m=2 n=2\nx0^2 + (t)*x1*x2\n")
        )
        assert field.order == 9
        assert X.degree == 2

    def test_polynomial_may_wrap_lines(self, tmp_path):
        field, X = parse_input(
            write_input(tmp_path, "p=5 m=1 n=2\nx0*x2\n- x1^2\n")
        )
        assert X.form == poly.parse_form(F5, "x0*x2 - x1^2", 3)

    def test_round_trip_through_canonical_text(self, tmp_path):
        field, X = parse_input(write_input(tmp_path, CONIC))
        text = f"p=5 m=1 n=2\n{poly.format_form(X.form)}\n"
        field2, Y = parse_input(write_input(tmp_path, text, "rt.txt"))
        assert Y.form == X.form

    def test_inhomogeneous_reports_position(self, tmp_path):
        with pytest.raises(InputFileError) as err:
            parse_input(write_input(tmp_path, "p=5 m=1 n=2\nx0^2 + x1\n"))
        assert err.value.line == 2
        assert "not homogeneous" in str(err.value)

    def test_bad_token_reports_column(self, tmp_path):
        with pytest.raises(InputFileError) as err:
            parse_input(write_input(tmp_path, "p=5 m=1 n=2\nx0*x2 - y\n"))
        assert (err.value.line, err.value.column) == (2, 9)

    def test_error_inside_a_coefficient_reports_its_own_position(self, tmp_path):
        # the coefficient is parsed at its true offset, not as text of its own
        path = write_input(tmp_path, "p=3 m=2 n=2\nx0^2 + x1^2 +\n  (x1)*x0*x2\n")
        with pytest.raises(InputFileError) as err:
            parse_input(path)
        assert (err.value.line, err.value.column) == (3, 4)
        assert "inside a coefficient" in str(err.value)

    @pytest.mark.parametrize("header, line, column", [
        ("p=5 m=1 n=2", "    y", 5),
        ("p=5 m=1 n=2", "    (t)*x2^2", 6),
        ("p=3 m=2 n=2", "\t x0 x1 )", 9),
    ], ids=["bad-character", "t-over-prime-field", "tab-and-stray-paren"])
    def test_columns_count_the_indentation(self, tmp_path, header, line, column):
        path = write_input(tmp_path, f"{header}\nx0^2 + x1^2 +\n{line}\n")
        with pytest.raises(InputFileError) as err:
            parse_input(path)
        assert (err.value.line, err.value.column) == (3, column)

    def test_blank_lines_inside_the_polynomial_keep_numbering(self, tmp_path):
        path = write_input(tmp_path, "\np=5 m=1 n=2\n\nx0^2 +\n\n x1 ^ 3\n")
        with pytest.raises(InputFileError) as err:
            parse_input(path)
        assert (err.value.line, err.value.column) == (6, 2)
        assert "not homogeneous" in str(err.value)

    def test_t_needs_extension(self, tmp_path):
        with pytest.raises(InputFileError) as err:
            parse_input(write_input(tmp_path, "p=5 m=1 n=2\nx0^2 + (t)*x1*x2\n"))
        assert "outside the field" in str(err.value)
        assert (err.value.line, err.value.column) == (2, 9)

    def test_header_required(self, tmp_path):
        with pytest.raises(InputFileError) as err:
            parse_input(write_input(tmp_path, "q=5 n=2\nx0^2\n"))
        assert err.value.line == 1

    def test_composite_characteristic(self, tmp_path):
        with pytest.raises(InputFileError):
            parse_input(write_input(tmp_path, "p=6 m=1 n=2\nx0^2\n"))

    def test_zero_polynomial(self, tmp_path):
        with pytest.raises(InputFileError) as err:
            parse_input(write_input(tmp_path, "p=5 m=1 n=2\nx0^2 - x0^2\n"))
        assert "zero" in str(err.value)

    def test_missing_polynomial(self, tmp_path):
        with pytest.raises(InputFileError):
            parse_input(write_input(tmp_path, "p=5 m=1 n=2\n"))

    def test_variable_beyond_ambient(self, tmp_path):
        with pytest.raises(InputFileError):
            parse_input(write_input(tmp_path, "p=5 m=1 n=2\nx0*x3 - x1^2\n"))


class TestRunLevelFlags:
    def test_bad_format(self, tmp_path, capsys):
        code = cli.main([
            "find-line", "--input", write_input(tmp_path, CONIC),
            "--format", "xml",
        ])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--max-field-bits", "--max-enum"])
    def test_caps_must_be_positive(self, tmp_path, capsys, flag):
        code = cli.main([
            "find-line", "--input", write_input(tmp_path, CONIC), flag, "0",
        ])
        assert code == EXIT_USAGE
        assert "caps must be positive" in capsys.readouterr().err


class TestFindCommands:
    def test_find_line_writes_outcome(self, tmp_path):
        out = tmp_path / "r.json"
        code = cli.main([
            "find-line",
            "--input", write_input(tmp_path, CONIC),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        data = json.loads(out.read_text())
        assert data["outcome"]["found"] is not None
        assert data["outcome"]["seed"] == DEFAULT_SEED
        assert data["outcome"]["gate"]["satisfied"] is True

    def test_identical_runs_are_byte_identical(self, tmp_path):
        src = write_input(tmp_path, CUBIC)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = cli.main([
                "find-flag", "--input", src, "--r", "1", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_find_flag_certifies_every_level(self, tmp_path):
        out = tmp_path / "r.json"
        cli.main([
            "find-flag",
            "--input", write_input(tmp_path, CUBIC),
            "--r", "2", "--out", str(out),
        ])
        data = json.loads(out.read_text())
        certs = data["outcome"]["found"]["certificates"]
        assert [c["predicate"] for c in certs] == [
            "very-transverse", "very-transverse", "transverse",
        ]

    def test_find_reduced_hyperplane_level(self, tmp_path):
        src = write_input(tmp_path, "p=5 m=1 n=3\nx0*x1\n")
        out = tmp_path / "r.json"
        code = cli.main(["find-reduced", "--input", src, "--r", "2",
                         "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["outcome"]["found"] is not None


class TestCountCommands:
    def test_count_lines_csv(self, tmp_path, capsys):
        code = cli.main([
            "count", "lines",
            "--input", write_input(tmp_path, CONIC),
            "--format", "csv",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == (
            "experiment,n,d,q,r,t,observed,bound,bound_formula,citation,"
            "verdict,runtime_ms,seed"
        )
        # unknown factorization: no irreducible-component subreport
        assert len(lines) == 2
        assert lines[1].startswith("nontransverse-lines,2,2,5,1,0,6,18,")

    def test_count_hyperplanes(self, tmp_path, capsys):
        code = cli.main([
            "count", "hyperplanes",
            "--input", write_input(tmp_path, "p=5 m=1 n=3\nx0*x1\n"),
            "--t", "2",
        ])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["all_pass"] is True
        assert data["reports"][0]["observed"] == 6
        assert data["reports"][0]["bound"] == 7

    def test_count_superspaces(self, tmp_path, capsys):
        code = cli.main([
            "count", "superspaces",
            "--input", write_input(tmp_path, CUBIC),
            "--r", "1",
        ])
        assert code == EXIT_OK
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [(r["experiment"], r["observed"]) for r in reports] == [
            ("bad-superspaces", 9),
            ("tangent-superspaces", 9),
            ("dual-contained-superspaces", 0),
        ]

    def test_count_lines_rejects_higher_ambient(self, tmp_path, capsys):
        code = cli.main([
            "count", "lines",
            "--input", write_input(tmp_path, "p=5 m=1 n=3\nx0*x1\n"),
        ])
        assert code == EXIT_USAGE


class TestAuditCommands:
    def test_inequalities_grid(self, tmp_path, capsys):
        code = cli.main(["audit", "inequalities", "--nmax", "6", "--dmax", "5"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert rep["experiment"] == "inequality-lemmas"
        assert rep["observed"] == 0
        assert rep["grid_points"] == 240
        assert rep["verdict"] == "pass"

    def test_space_filling(self, tmp_path, capsys):
        code = cli.main(["audit", "space-filling", "--n", "1", "--q", "2",
                         "--d", "2"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert rep["observed"] == 0
        assert rep["verdict"] == "pass"

    def test_separation(self, tmp_path, capsys):
        code = cli.main(["audit", "separation", "--samples", "1", "--n", "3",
                         "--d", "3", "--q", "2", "--r", "1"])
        assert code == EXIT_OK
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert rep["verdict"] == "observational"
        assert rep["runtime_ms"] == 0  # normalized for reproducibility

    def test_audit_all_small(self, tmp_path):
        out = tmp_path / "all.json"
        code = cli.main(["audit", "all", "--samples", "1", "--out", str(out)])
        assert code == EXIT_OK
        reports = json.loads(out.read_text())["reports"]
        experiments = [r["experiment"] for r in reports]
        for expected in (
            "nontransverse-lines",
            "bad-hyperplanes",
            "bad-superspaces",
            "space-filling",
            "inequality-lemmas",
            "separation-search",
        ):
            assert expected in experiments
        assert all(
            r.get("verdict") in ("pass", "observational") for r in reports
        )


class TestExitCodes:
    def test_missing_input_is_usage_error(self):
        assert cli.main(["find-line"]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == EXIT_USAGE

    def test_input_error_is_usage_error(self, tmp_path):
        bad = write_input(tmp_path, "p=5 m=1 n=2\nx0^2 + x1\n")
        assert cli.main(["find-line", "--input", bad]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["space-filling", "--n", "0", "--q", "2", "--d", "2"],
        ["space-filling", "--n", "2", "--q", "2", "--d", "0"],
        ["space-filling", "--n", "2", "--q", "0", "--d", "2"],
        ["separation", "--samples", "0", "--n", "3", "--d", "3", "--q", "2"],
    ], ids=["n0", "d0", "q0", "samples0"])
    def test_explicit_zero_is_not_the_default(self, argv, capsys):
        # the library refuses each zero; the CLI must pass it on, not
        # swap in the flag's default
        assert cli.main(["audit", *argv]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_degree_over_cap_exits_one_with_message(self, tmp_path, capsys):
        big = write_input(
            tmp_path, "p=13 m=1 n=2\nx0^5001 + x1^5001 + x2^5001\n"
        )
        assert cli.main(["find-line", "--input", big]) == EXIT_USAGE
        assert "form degree 5001 exceeds cap 5000" in capsys.readouterr().err

    def test_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(X, seed=None):
            raise config.TheoremViolationError("forced for the exit-code test")

        monkeypatch.setattr(cli.search, "find_transverse_line_reduced", boom)
        code = cli.main([
            "find-line", "--input", write_input(tmp_path, CONIC),
        ])
        assert code == EXIT_VIOLATION
        assert "violation" in capsys.readouterr().out

    def test_failed_bound_exits_two(self, tmp_path, monkeypatch):
        fake = audit.AuditReport(
            experiment="forced",
            params={"n": 2, "d": 2, "q": 5, "r": 1, "t": 0},
            observed=99,
            bound=1,
            bound_formula="1",
            citation="forced failing report for the exit-code test",
            verdict="fail",
            runtime_ms=3,
            seed=0,
        )
        monkeypatch.setattr(
            cli.audit, "audit_space_filling", lambda n, q, d: fake
        )
        out = tmp_path / "r.json"
        code = cli.main(["audit", "space-filling", "--out", str(out)])
        assert code == EXIT_VIOLATION
        assert json.loads(out.read_text())["all_pass"] is False

    def test_infeasible_search_exits_one_with_message(
        self, tmp_path, monkeypatch, capsys
    ):
        def over_budget(X, r, seed=None):
            raise config.SearchInfeasibleError("forced for the exit-code test")

        monkeypatch.setattr(cli.search, "find_very_transverse_flag", over_budget)
        code = cli.main([
            "count", "superspaces", "--input", write_input(tmp_path, CUBIC),
            "--r", "1",
        ])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: forced for the exit-code test" in captured.err

    @pytest.mark.parametrize("argv", [
        ["audit", "inequalities", "--samples", "7"],
        ["audit", "inequalities", "--q", "4"],
        ["audit", "space-filling", "--samples", "9"],
        ["audit", "all", "--input", "x"],
        ["audit", "all", "--n", "9"],
        ["count", "hyperplanes", "--input", CUBIC, "--r", "7"],
        ["count", "lines", "--input", CONIC, "--t", "3"],
        ["count", "superspaces", "--input", CUBIC],
    ], ids=[
        "inequalities-samples", "inequalities-q", "space-filling-samples",
        "all-input", "all-n", "hyperplanes-r", "lines-t", "superspaces-no-r",
    ])
    def test_unread_or_missing_flag_is_usage_error(self, argv, tmp_path, capsys):
        # every leaf takes exactly the flags its command reads; a flag it
        # would ignore is refused, not dropped
        argv = [
            write_input(tmp_path, a) if a in (CONIC, CUBIC) else a
            for a in argv
        ]
        assert cli.main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_field_cap_reaches_certification(self, tmp_path, capsys):
        # F_13 is within 2^5, but the Las-Vegas slices need F_169
        code = cli.main([
            "find-flag", "--input", write_input(tmp_path, CUBIC),
            "--r", "2", "--max-field-bits", "5",
        ])
        assert code == EXIT_USAGE
        assert "13^2 exceeds 2^5 cap" in capsys.readouterr().err

    def test_run_restores_process_caps(self, tmp_path):
        before = config.current_caps()
        src = write_input(tmp_path, CUBIC)
        cli.main(["find-flag", "--input", src, "--r", "2",
                  "--max-field-bits", "5"])
        assert config.current_caps() is before
        cli.main(["find-flag", "--input", src, "--r", "1"])
        assert config.current_caps() is before

    def test_module_entry_point(self, tmp_path):
        src = write_input(tmp_path, CONIC)
        proc = subprocess.run(
            [sys.executable, "-m", "transverse.cli", "find-line",
             "--input", src],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["outcome"]["found"] is not None


FIXTURE = "bench/fixtures/fermat_cubic_f13.txt"
CORPUS_SHA256 = {
    "find-flag --r 2":
        "239ce4c0021fd58616d8c0d9ee7f293bb5ba3b65c13f666f449eca80f965d3fb",
    "find-flag --r 1 --seed 7":
        "65222ad1750b476d080bc092d493b28256b197f961bbf2a1db3e7c68a1c1203a",
    "find-line":
        "388799263fa5e5c883871ba525a61ae2d0d95aff9945bd34b0e86598b642a77c",
    "count hyperplanes":
        "8d5a6477ac1d14cc401bbc4b59c793f475dcecb0b4456bc741f8363dde2cbf3b",
    "count superspaces --r 1":
        "e0ad036c06b5267a3dc8e4dd415aa63ccdffd488c789afd3c1e7d0ce12b8d516",
    "count superspaces --r 2":
        "736b18735960ab91b3a1e36a6ab2dcc5a3bbcf723fbe08ca849b54ddae4404fd",
    "audit all":
        "a25226a54072acdef853f81cba640b5f85a87d523ed01c8b8e315112cd5f1919",
    "audit separation --samples 4 --n 3 --d 3 --q 3":
        "03ab2d81d8f6edb1b30c9c8fc1e9c5f2fad98c0598dd6d10a1169380e9d36812",
}


# the same bytes for the CSV writer, recorded before it moved into the CLI
CSV_SHA256 = {
    "count hyperplanes":
        "78e691d6cfd9c9cceca878af15dd4d8ce8ca84b0cb8a791e979be4f163075e3b",
    "find-flag --r 2":
        "26f4ffd2c39caac762abf74198f7b1b73d52d4c32c88dc9a30a8f5acbf8552a5",
    "audit all":
        "d08f26320ab3edbf551e40d0f731ba590292421fccae5c96255abfaa608fd7ab",
}


def corpus_stdout_sha256(argv):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    if argv[0] != "audit":
        argv = [*argv, "--input", FIXTURE]
    proc = subprocess.run(
        [sys.executable, "-m", "transverse.cli", *argv],
        cwd=REPO, env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("command", sorted(CORPUS_SHA256))
def test_corpus_stdout_is_pinned(command):
    # refactors must leave the report bytes on the benchmark fixture alone;
    # the audits run on built-in fixtures and take no input
    assert corpus_stdout_sha256(command.split()) == CORPUS_SHA256[command]


@pytest.mark.parametrize("command", sorted(CSV_SHA256))
def test_corpus_csv_stdout_is_pinned(command):
    argv = [*command.split(), "--format", "csv"]
    assert corpus_stdout_sha256(argv) == CSV_SHA256[command]
