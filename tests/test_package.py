"""The package's public surface: the layer map, what importing a layer
loads, a rule on its source, and the README."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multipath

ROOT = Path(__file__).resolve().parent.parent


def loaded_after(statement: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``statement`` in
    the repository root."""
    script = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(multipath.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("statement, loaded", [
    ("import multipath", ["multipath"]),
    ("import multipath.decoding",
     ["multipath", "multipath.decoding", "multipath.errors", "multipath.kernels", "multipath.models"]),
    ("import multipath.remote", ["multipath", "multipath.errors", "multipath.kernels", "multipath.models",
                                 "multipath.remote"]),
], ids=["package", "decoding", "submodule"])
def test_importing_a_layer_loads_only_the_layers_below_it(statement, loaded):
    assert [m for m in loaded_after(statement) if m.partition(".")[0] == "multipath"] == loaded


def documented_layers() -> dict[str, set[str]]:
    """Each layer the package docstring lists, with the layers in the first
    parentheses of its entry (none when the entry has no list)."""
    layers = {}
    for entry in re.findall(r"^- (.*?)(?=^- |^$)", multipath.__doc__, flags=re.M | re.S):
        name, _, text = entry.partition(":")
        listed = re.search(r"\(([^)]*)\)", text)
        layers[name] = {layer.strip() for layer in listed.group(1).split(",")} if listed else set()
    return layers


def imported_layers(tree: ast.Module) -> set[str]:
    """The layers a module imports at its top level, by ``from .x import``
    or ``from . import x``; imports inside functions and ``if TYPE_CHECKING:``
    blocks are not top level."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_the_docstring_lists_the_layers_each_module_imports():
    documented = documented_layers()
    modules = {path.stem: path for path in (ROOT / "src" / "multipath").glob("*.py") if path.stem != "__init__"}
    assert set(documented) == set(modules)
    imported = {name: imported_layers(ast.parse(path.read_text(encoding="utf-8"))) for name, path in modules.items()}
    assert imported == documented


def test_correction_does_not_load_the_wire_layer():
    loaded = loaded_after("import multipath.correction")
    assert "multipath.correction" in loaded
    assert "multipath.remote" not in loaded


def test_a_table_model_decode_loads_no_wire_module():
    # remote imports urllib and http; cli imports it only for a remote spec
    # or the judge.
    loaded = loaded_after('import multipath.cli\nmultipath.cli.main(["decode", "--model", "data/greedy_trap.json"])')
    assert "multipath.cli" in loaded
    assert {"multipath.remote", "urllib.request", "http.client"} & set(loaded) == set()


@pytest.mark.parametrize("command", ["decode", "compare"])
def test_a_serial_run_loads_no_process_or_thread_pool_module(command, tmp_path):
    # subprocess is for code-task verifiers and concurrent.futures for
    # --workers > 1; a serial run over math tasks needs neither.
    from multipath.correction import STRATEGY_KINDS

    if command == "decode":
        argv = ["decode", "--model", "data/greedy_trap.json"]
    else:
        strategies = [flag for kind in STRATEGY_KINDS for flag in ("--strategy", kind)]
        argv = ["compare", "--model", "data/toy_table_lm.json", "--dataset", "data/toy_math.jsonl",
                *strategies, "--out", str(tmp_path / "out")]
    loaded = loaded_after(f"import multipath.cli\nassert multipath.cli.main({argv!r}) == 0")
    assert "multipath.cli" in loaded
    assert {"subprocess", "concurrent.futures"} & set(loaded) == set()


@pytest.mark.parametrize("argv, oracle", [
    (["decode", "--model", "data/greedy_trap.json"], False),
    (["oracle-check", "--models", "1", "--trials", "1"], True),
], ids=["decode", "oracle-check"])
def test_only_oracle_check_loads_the_oracle(argv, oracle):
    loaded = loaded_after(f"import multipath.cli\nassert multipath.cli.main({argv!r}) == 0")
    assert ("multipath.oracle" in loaded) == oracle


# Each use of the builtin sum() in src, by module and enclosing function,
# with its count. Each sums integers.
INTEGER_SUMS = {
    ("evaluation.py", "score_run"): 2,  # the stage-1 and stage-2 token totals
    ("models.py", "NGramLM._row"): 1,  # a context's next-token counts
    ("oracle.py", "random_table_lm"): 1,  # a random row's integer weights
}


def test_src_sums_floats_without_the_builtin_sum():
    # From Python 3.12 the builtin sum() of floats is compensated, so a float
    # sum would give other output bytes on other versions; src adds floats in
    # a plain left-to-right loop, as kernels.log_sum_exp does.
    found: dict[tuple[str, str], int] = {}

    def visit(node: ast.AST, module: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if isinstance(child, ast.Name) and child.id == "sum":
                key = (module, ".".join(scope))
                found[key] = found.get(key, 0) + 1
            visit(child, module, inner)

    for path in sorted((ROOT / "src" / "multipath").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, ())
    assert found == INTEGER_SUMS


def interpreters() -> list[str]:
    """This interpreter and each Python >= 3.10 under pyenv's versions."""
    found = {str(Path(sys.executable).resolve()): sys.executable}
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    for folder in sorted(versions.glob("3.*")):
        match = re.match(r"3\.(\d+)", folder.name)
        python = folder / "bin" / "python3"
        if match and int(match.group(1)) >= 10 and python.exists():
            found.setdefault(str(python.resolve()), str(python))
    return list(found.values())


def test_outputs_are_the_same_bytes_on_every_interpreter():
    digests = {}
    for python in interpreters():
        proc = subprocess.run([python, str(ROOT / "tests" / "interpreter_digest.py")], capture_output=True, text=True,
                              timeout=300)
        digests[python] = proc.stdout.strip() if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr}"
    # A failing script is no digest, even when it fails alike everywhere.
    hexdigest = re.compile("[0-9a-f]{64}")
    assert len(set(digests.values())) == 1 and all(map(hexdigest.fullmatch, digests.values())), \
        f"digest by interpreter: {digests}"


def test_readme_paths_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = re.findall(r"`((?:src|data|tests|perfbench|scripts)/[^`\s]*)`", readme)
    assert paths
    assert [path for path in paths if not (ROOT / path).exists()] == []


def test_readme_names_every_defect_and_oracle_suite(capsys):
    # --help does not list the defects, so the README is the list users
    # read: it must name each entry of oracle.MUTATIONS and each suite line
    # that oracle-check prints.
    from multipath.cli import main
    from multipath.oracle import MUTATIONS

    assert main(["oracle-check", "--models", "0", "--trials", "0"]) == 0
    suites = [line.partition(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert suites
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert [name for name in [*MUTATIONS, *suites] if f"`{name}`" not in readme] == []


def test_readme_calls_name_the_code():
    # Every backticked `name(` in the prose is a function, class or method
    # of a multipath module, so a renamed one cannot leave stale docs.
    names = set()
    for info in pkgutil.iter_modules(multipath.__path__, "multipath."):
        module = importlib.import_module(info.name)
        names.update(dir(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            names.update(dir(cls))
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]*)`", prose)
    called = {m.group(1) for span in spans if (m := re.match(r"([A-Za-z_]\w*)\(", span))}
    assert "cost_ratio" in called
    assert sorted(called - names - {"exp", "sha256"}) == []


def test_readme_command_lines_name_the_cli():
    # Every command line the README shows, in a shell block or a backticked
    # span, runs a command of cli.COMMANDS with flags of cli.SETTINGS, so a
    # removed command or flag cannot linger in the docs.
    from multipath import cli

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    shell = "\n".join(re.findall(r"```sh\n(.*?)```", readme, flags=re.S))
    lines = re.sub(r"\n[ \t]+", " ", shell).splitlines()  # a continuation line joins the line above
    spans = re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    calls = [line.removeprefix("$ ").split() for line in lines] + [span.split() for span in spans]
    calls = [words for words in calls if words and (words[0] in ("multipath", *cli.COMMANDS) or words[0][:2] == "--")]
    commands = {words[1] for words in calls if words[0] == "multipath"}
    flags = {word for words in calls for word in re.findall(r"--[\w-]+", " ".join(words))}
    known = {f"--{s.key.replace('_', '-')}" for s in cli.SETTINGS if s.form != "positional"} | {"--help"}
    assert "compare" in commands and {"--fn-rate", "--judge-url"} <= flags
    assert sorted(commands - cli.COMMANDS.keys()) == []
    assert sorted(flags - known) == []
