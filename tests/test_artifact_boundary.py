"""Every file mobanom writes goes through ``core.atomic_write``, and every JSONL line through ``core.parse_jsonl``.

The source is scanned with ``ast``, so a new ``open(path, "w")``, rename or
``json.loads`` anywhere else in ``src/mobanom`` fails here.
"""

import ast
import collections
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mobanom"

# (file, enclosing function, call) of every write, rename and line parse the package may make: the
# one atomic writer, the rename that marks a failed stage's outputs ``.partial``, the one reader, and
# the LLM client's parse of an HTTP answer body, which is no file line
ALLOWED = [
    ("cli.py", "_run_stage", "os.replace"),
    ("core.py", "atomic_write", "open"),
    ("core.py", "atomic_write", "os.replace"),
    ("core.py", "parse_jsonl", "json.loads"),
    ("llm/client.py", "_extract", "json.loads"),
]

WATCHED = {"os.replace", "os.rename", "os.open", "shutil.move", "shutil.copy", "shutil.copyfile", "json.loads"}


def opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode may write (a mode that is not a literal counts as writing)."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def sites():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            name = ast.unparse(call.func)
            if name in ("open", "io.open", "builtins.open") and opens_for_writing(call):
                name = "open"
            elif not (name in WATCHED or name.endswith((".write_text", ".write_bytes"))):
                continue
            scope = call
            while scope in parents and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = parents[scope]
            found.append((str(path.relative_to(SRC)), getattr(scope, "name", "<module>"), name))
    return found


def test_only_the_atomic_writer_writes_and_only_the_reader_parses_lines():
    assert collections.Counter(sites()) == collections.Counter(ALLOWED)


def test_the_scan_sees_a_write_in_place(tmp_path, monkeypatch):
    (tmp_path / "rogue.py").write_text(
        "import os\n"
        "def save(path, text, mode):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(text)\n"
        "    open(path, mode)\n"
        "    open(path, 'rb')\n"
        "    os.rename(path, path + '.bak')\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert collections.Counter(sites()) == {("rogue.py", "save", "open"): 2, ("rogue.py", "save", "os.rename"): 1}
