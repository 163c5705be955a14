import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bbf.catalog import builtin_catalog, serialize_catalog
from bbf.cli import main, parse_matrix, parse_vector, rat_str, run, vec_str

HYP = "0,1,0;1,0,0;0,0,-2"


def ok(argv):
    res = run(argv)
    assert res.status == "ok", res
    return res.payload


def err(argv):
    res = run(argv)
    assert res.status == "error", res
    return res


class TestParsing:
    def test_vector_roundtrip(self):
        text = "1,-2,3/4"
        v = parse_vector(text)
        assert vec_str(v) == ["1", "-2", "3/4"]
        assert parse_vector(",".join(vec_str(v))) == v

    def test_matrix(self):
        m = parse_matrix("1,0;0,1")
        assert m == [(1, 0), (0, 1)]

    def test_bad_input(self):
        assert err(["signature", "--gram", "0,1;1"]).error["type"] == "usage"
        assert err(["signature", "--gram", "abc"]).error["type"] == "usage"

    def test_rat_str(self):
        from fractions import Fraction

        assert rat_str(5) == "5"
        assert rat_str(Fraction(-1, 3)) == "-1/3"


class TestSubcommands:
    def test_lattice_info(self):
        payload = ok(["lattice", "info", "--name", "K3"])
        assert payload["rank"] == 22
        assert payload["signature"] == [3, 19]
        assert payload["det"] == "-1"
        assert payload["even"] is True

    def test_signature(self):
        assert ok(["signature", "--gram", "0,1;1,0"])["signature"] == [1, 1]
        assert ok(["signature", "--name", "toy-U3"])["signature"] == [3, 3]

    def test_complement(self):
        payload = ok(["complement", "--name", "toy-U3", "--subspace", "1,2,0,0,0,0"])
        assert payload["basis"][0] == ["1", "-2", "0", "0", "0", "0"]
        assert payload["rank"] == 5

    def test_enumerate_norm(self):
        payload = ok(["enumerate-norm", "--gram", "-2,0;0,-2", "--norm", "-2"])
        assert payload["count"] == 4
        assert payload["vectors"] == [["-1", "0"], ["0", "-1"], ["0", "1"], ["1", "0"]]

    def test_mbm_in_complement(self):
        payload = ok(
            [
                "mbm-in-complement",
                "--name", "toy-U3",
                "--subspace", "1,1,0,0,0,0;0,0,1,1,0,0;0,0,0,0,1,1",
            ]
        )
        assert payload["count"] == 3

    def test_walls_through_and_chamber(self):
        payload = ok(["walls-through", "--gram", HYP, "--vector", "1,1,0", "--norms", "-2"])
        assert [w["class"] for w in payload["walls"]] == [["0", "0", "1"], ["1", "-1", "0"]]
        payload = ok(["chamber", "--gram", HYP, "--vector", "3,4,1", "--norms", "-2"])
        assert payload == {"membership": "interior", "walls": []}
        payload = ok(["chamber", "--gram", HYP, "--vector", "1,1,0", "--norms", "-2"])
        assert payload["membership"] == "on-walls"

    def test_separating_walls(self):
        payload = ok(
            ["separating-walls", "--gram", HYP, "--from", "3,4,1", "--to", "4,3,-1", "--norms", "-2"]
        )
        assert payload["count"] == 2
        assert {tuple(w["class"]) for w in payload["walls"]} == {
            ("0", "0", "1"), ("1", "-1", "0"),
        }
        assert all(w["t"] == "1/2" for w in payload["walls"])

    def test_same_chamber(self):
        payload = ok(
            ["same-chamber", "--gram", HYP, "--reference", "3,4,1", "--vector", "6,8,2", "--norms", "-2"]
        )
        assert payload == {"same_chamber": True}

    def test_hk_image(self):
        payload = ok(
            [
                "hk-image",
                "--name", "toy-U3",
                "--plane", "1,2,0,0,0,0;0,0,1,2,0,0;0,0,0,0,1,2",
                "--norms", "-2",
            ]
        )
        assert payload == {"in_image": True, "witnesses": []}
        payload = ok(
            ["hk-image", "--name", "toy-U3", "--plane", "1,1,0,0,0,0;0,0,1,1,0,0;0,0,0,0,1,1"]
        )
        assert payload["in_image"] is False
        assert len(payload["witnesses"]) == 3

    def test_symp_image(self):
        payload = ok(["symp-image", "--name", "toy-U3", "--vector", "1,1,0,0,0,0"])
        assert payload == {"in_image": True, "q": "2"}
        payload = ok(["symp-image", "--name", "toy-U3", "--vector", "1,-1,0,0,0,0"])
        assert payload == {"in_image": False, "q": "-2"}

    def test_twistor(self):
        payload = ok(
            [
                "twistor",
                "--name", "toy-U3",
                "--triple", "1,1,0,0,0,0;0,0,1,1,0,0;0,0,0,0,1,1",
                "--direction", "1,0,0",
            ]
        )
        assert payload["omega"] == ["1", "1", "0", "0", "0", "0"]
        assert payload["q_omega"] == "2"
        assert payload["plane"] == [
            ["0", "0", "1", "1", "0", "0"],
            ["0", "0", "0", "0", "1", "1"],
        ]

    def test_hk_equiv(self):
        triple = "1,1,0,0,0,0;0,0,1,1,0,0;0,0,0,0,1,1"
        other = "0,0,1,1,0,0;0,0,0,0,1,1;1,1,0,0,0,0"
        swapped = "0,0,1,1,0,0;1,1,0,0,0,0;0,0,0,0,1,1"
        assert ok(["hk-equiv", "--name", "toy-U3", "--triple", triple, "--other", other]) == {
            "equivalent": True
        }
        assert ok(["hk-equiv", "--name", "toy-U3", "--triple", triple, "--other", swapped]) == {
            "equivalent": False
        }

    def test_fiber_sample(self):
        payload = ok(
            [
                "fiber-sample",
                "--name", "toy-U3",
                "--vector", "1,2,0,0,0,0",
                "--count", "5",
                "--seed", "7",
            ]
        )
        assert len(payload["samples"]) == 5
        assert payload["accepted_count"] == sum(1 for s in payload["samples"] if s["accepted"])

    def test_fiber_connectivity(self):
        payload = ok(
            [
                "fiber-connectivity",
                "--name", "toy-U3",
                "--vector", "1,2,0,0,0,0",
                "--pairs", "2",
                "--steps", "8",
                "--seed", "5",
            ]
        )
        assert payload["pairs_tested"] == 2
        assert payload["paths_found"] == 2

    def test_validate_catalog(self, tmp_path):
        payload = ok(["validate-catalog"])
        assert payload["all_passed"] is True
        cat = builtin_catalog()
        bad = cat["toy-U3"].to_dict()
        bad["mbm_norms"] = [3]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([bad]))
        payload = ok(["validate-catalog", "--catalog", str(path)])
        assert payload["all_passed"] is False
        names = [c["check"] for c in payload["entries"][0]["checks"] if not c["passed"]]
        assert names == ["norms-negative"]


class TestErrorsAndExitCodes:
    def test_domain_error_exit_1(self, capsys):
        code = main(["chamber", "--gram", HYP, "--vector", "1,1,1", "--norms", "-2"])
        out = capsys.readouterr().out
        assert code == 1
        doc = json.loads(out)
        assert doc["error"]["type"] == "InvariantViolation"

    def test_wrong_length_rows_exit_1(self, capsys):
        for argv in (
            ["hk-image", "--name", "toy-U3", "--plane", "1,2;0,1;1,1"],
            ["mbm-in-complement", "--name", "toy-U3", "--subspace", "1,2;0,1;1,1"],
        ):
            assert main(argv) == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["error"]["type"] == "DimensionMismatch"

    def test_negative_counts_exit_1(self, capsys):
        base = ["--name", "toy-U3", "--vector", "1,2,0,0,0,0", "--seed", "1"]
        for argv in (
            ["fiber-sample", "--count", "-1"] + base,
            ["fiber-connectivity", "--pairs", "-1", "--steps", "5"] + base,
            ["fiber-connectivity", "--pairs", "1", "--steps", "0"] + base,
        ):
            assert main(argv) == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["error"]["type"] == "InvariantViolation"

    def test_empty_field_exit_2(self, capsys):
        # an empty field must not be dropped: "1,,1,0,0,0,0" is not the
        # 6-vector (1, 1, 0, 0, 0, 0)
        for argv in (
            ["symp-image", "--name", "toy-U3", "--vector", "1,,1,0,0,0,0"],
            ["signature", "--gram", "1,0;;0,-1"],
            ["walls-through", "--gram", HYP, "--vector", "1,1,0", "--norms", "-2,"],
        ):
            assert main(argv) == 2
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "usage"

    def test_usage_error_exit_2(self, capsys):
        code = main(["no-such-command"])
        assert code == 2
        assert "error" in json.loads(capsys.readouterr().out)

    def test_missing_norms_usage_error(self):
        res = err(["walls-through", "--gram", HYP, "--vector", "1,1,0"])
        assert res.error["type"] == "usage"

    def test_catalog_norms_default(self):
        payload = ok(["walls-through", "--name", "toy-U3-hyp-proxy"]) if False else None
        # catalog entries carry their own norm set: no --norms needed
        payload = ok(
            ["hk-image", "--name", "toy-U3", "--plane", "1,2,0,0,0,0;0,0,1,2,0,0;0,0,0,0,1,2"]
        )
        assert payload["in_image"] is True

    def test_missing_lattice(self):
        res = err(["signature"])
        assert res.error["type"] == "usage"

    def test_conflicting_lattice_args(self):
        res = err(["signature", "--gram", "0,1;1,0", "--name", "K3"])
        assert res.error["type"] == "usage"

    def test_bad_catalog_path(self):
        res = err(["lattice", "info", "--catalog", "/nonexistent/x.json", "--name", "K3"])
        assert res.error["type"] in ("FileNotFoundError", "OSError", "CatalogError")

    def test_unknown_entry(self):
        res = err(["lattice", "info", "--name", "NotThere"])
        assert res.error["type"] == "CatalogError"
        assert "NotThere" in res.error["message"]

    def test_non_object_entry_fails_schema(self, tmp_path, capsys):
        path = tmp_path / "ints.json"
        path.write_text("[1]")
        assert main(["validate-catalog", "--catalog", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is False
        assert [c["check"] for c in doc["entries"][0]["checks"]] == ["schema"]

    def test_non_utf8_catalog_exit_1(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'[{"name": "\xe9"}]')
        for argv in (
            ["lattice", "info", "--catalog", str(path), "--name", "K3"],
            ["validate-catalog", "--catalog", str(path)],
        ):
            assert main(argv) == 1
            doc = json.loads(capsys.readouterr().out)
            assert doc["error"]["type"] == "CatalogError"


class TestDeterminismAndEnv:
    def test_seeded_commands_byte_identical(self, capsys):
        args = [
            "fiber-sample", "--name", "toy-U3", "--vector", "1,2,0,0,0,0",
            "--count", "4", "--seed", "11",
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_env_catalog(self, tmp_path, monkeypatch):
        cat = builtin_catalog()
        path = tmp_path / "env.json"
        path.write_text(serialize_catalog([cat["toy-U3"]]))
        monkeypatch.setenv("BBF_CATALOG", str(path))
        payload = ok(["lattice", "info", "--name", "toy-U3"])
        assert payload["rank"] == 6
        res = err(["lattice", "info", "--name", "K3"])  # env catalog lacks K3
        assert res.error["type"] == "CatalogError"

    def test_module_entrypoint_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bbf", "symp-image", "--name", "toy-U3", "--vector", "1,1,0,0,0,0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"in_image": True, "q": "2"}

    def test_readme_examples(self, capsys, monkeypatch):
        # each "bbf ..." line of the README's command-line block prints the
        # "# {...}" line under it, where "..." stands for any elided text
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        examples = [
            (line, lines[i + 1][2:]) for i, line in enumerate(lines) if line.startswith("bbf ")
        ]
        assert len(examples) == 5
        monkeypatch.delenv("BBF_CATALOG", raising=False)
        for command, shown in examples:
            assert main(shlex.split(command)[1:]) == 0, command
            printed = capsys.readouterr().out.rstrip("\n")
            pattern = ".*".join(re.escape(part) for part in shown.split("..."))
            assert re.fullmatch(pattern, printed), (command, printed)

    def test_output_always_json(self, capsys):
        for args in (
            ["symp-image", "--name", "toy-U3", "--vector", "1,1,0,0,0,0"],
            ["chamber", "--gram", HYP, "--vector", "1,1,1", "--norms", "-2"],
            ["bogus"],
        ):
            main(args)
            out = capsys.readouterr().out
            json.loads(out)


# -- CLI fuzzing: any argv built from these tokens must give exit code 0, 1
# or 2 and exactly one JSON document on stdout, never a traceback.  K3 stays
# out (its calls are slow); --help is left out, since argparse prints usage
# text for it by design.

LATTICE_FLAGS = ["--catalog", "--name", "--gram"]
WALL_FLAGS = LATTICE_FLAGS + ["--norms"]
COMMAND_FLAGS = {
    ("lattice", "info"): ["--catalog", "--name"],
    ("lattice",): [],
    ("signature",): LATTICE_FLAGS,
    ("complement",): LATTICE_FLAGS + ["--subspace"],
    ("enumerate-norm",): ["--gram", "--norm"],
    ("mbm-in-complement",): WALL_FLAGS + ["--subspace"],
    ("walls-through",): WALL_FLAGS + ["--vector"],
    ("separating-walls",): WALL_FLAGS + ["--from", "--to"],
    ("chamber",): WALL_FLAGS + ["--vector"],
    ("same-chamber",): WALL_FLAGS + ["--reference", "--vector"],
    ("hk-image",): WALL_FLAGS + ["--plane"],
    ("symp-image",): LATTICE_FLAGS + ["--vector"],
    ("twistor",): LATTICE_FLAGS + ["--triple", "--direction"],
    ("hk-equiv",): LATTICE_FLAGS + ["--triple", "--other"],
    ("fiber-sample",): WALL_FLAGS + ["--vector", "--count", "--seed"],
    ("fiber-connectivity",): WALL_FLAGS + ["--vector", "--pairs", "--steps", "--seed"],
    ("validate-catalog",): ["--catalog"],
    ("bogus",): [],
    (): [],
}
VECTORS = ["1,1,0", "3,4,1", "1,2,0,0,0,0", "1,1,0,0,0,0", "0,0,0", "1/2,1/2,0", "1,0", "1/0", "abc", "", "1,,2"]
MATRICES = [
    HYP, "0,1;1,0", "-2,0;0,-2", "-2", "1,0,0;0,1,0;0,0,1", "1,2,0,0,0,0;0,0,1,2,0,0;0,0,0,0,1,2",
    "1,2;0,1", "1/2,0;0,1", "1;2,3", "1/0", "abc", "",
]
NORMS = ["-2", "-2,-4", "-4", "2", "0", "-1/2", "1/0", "abc", ""]
COUNTS = ["0", "1", "3", "-1", "x", ""]
FLAG_VALUES = {
    "--name": ["toy-U3", "nope", ""],
    "--gram": MATRICES, "--subspace": MATRICES, "--plane": MATRICES,
    "--triple": MATRICES, "--other": MATRICES,
    "--norms": NORMS, "--norm": NORMS,
    "--vector": VECTORS, "--from": VECTORS, "--to": VECTORS,
    "--reference": VECTORS, "--direction": VECTORS,
    "--count": COUNTS, "--seed": COUNTS, "--pairs": COUNTS, "--steps": COUNTS,
}
ALL_FLAGS = sorted(FLAG_VALUES) + ["--catalog"]


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    """Catalog paths for --catalog: a good one and broken ones."""
    root = tmp_path_factory.mktemp("catalogs")
    docs = {
        "toy.json": serialize_catalog([builtin_catalog()["toy-U3"]]).encode(),
        "ints.json": b"[1]",
        "object.json": b'{"name": "toy-U3"}',
        "latin1.json": b'[{"name": "\xe9"}]',
        "broken.json": b"[{",
    }
    for name, data in docs.items():
        (root / name).write_bytes(data)
    return [str(root / name) for name in docs] + [str(root / "missing.json"), ""]


class TestCliFuzz:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS), ids=" ".join)
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_argv_gives_one_json_document(self, catalog_files, command, data):
        values = dict(FLAG_VALUES, **{"--catalog": catalog_files})
        # mostly the command's own flags, so that most argvs reach a handler
        argv = list(command)
        for name in COMMAND_FLAGS[command]:
            if data.draw(st.booleans(), label="keep " + name):
                argv += [name, data.draw(st.sampled_from(values[name]))]
        tokens = ALL_FLAGS + ["lattice", "info", "signature"] + VECTORS + NORMS
        argv += data.draw(st.lists(st.sampled_from(tokens), max_size=2), label="extra")
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        text = out.getvalue()
        assert code in (0, 1, 2)
        assert text.endswith("\n") and text.count("\n") == 1
        assert ("error" in json.loads(text)) == (code != 0)
