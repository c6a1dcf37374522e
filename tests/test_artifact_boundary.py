"""Every file mobanom writes goes through ``core.atomic_write``, every JSONL line through ``core.parse_jsonl``,
every source put in front of a fault through ``core.naming``, every config file through ``cli._read_config``, and
every record of ``core`` is frozen.

The source is scanned with ``ast``, so a new ``open(path, "w")``, rename or
``json.loads``, a new rewrite or copy of a ``MobanomError``, or a new use of
``configparser``, anywhere else in ``src/mobanom`` fails here, and so does a
``core`` dataclass without ``frozen=True``.
"""

import ast
import collections
import pathlib
import sys

from mobanom.core import MobanomError

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


# (file, enclosing function) of every rewrite of an exception's message: the one naming helper, and the label
# reader, which names an entry's rule error with its agent
NAMING_ALLOWED = [("core.py", "naming"), ("core.py", "_label")]


def mobanom_errors(cls=MobanomError) -> set[str]:
    return {cls.__name__}.union(*(mobanom_errors(sub) for sub in cls.__subclasses__()))


def opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode may write (a mode that is not a literal counts as writing)."""
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("wax+"))


def modules():
    """For each module under SRC: its path relative to SRC, a function giving a node's enclosing function, its nodes."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def scope_of(node, parents=parents):
            while node in parents and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                node = parents[node]
            return getattr(node, "name", "<module>")

        yield str(path.relative_to(SRC)), scope_of, list(ast.walk(tree))


def sites():
    found = []
    for rel, scope_of, nodes in modules():
        for call in (n for n in nodes if isinstance(n, ast.Call)):
            name = ast.unparse(call.func)
            if name in ("open", "io.open", "builtins.open") and opens_for_writing(call):
                name = "open"
            elif not (name in WATCHED or name.endswith((".write_text", ".write_bytes"))):
                continue
            found.append((rel, scope_of(call), name))
    return found


def namings():
    """Every assignment to an ``.args``, and every handler of a MobanomError (or a subclass) that raises a new
    exception, as (file, enclosing function)."""
    errors, found = mobanom_errors(), []
    for rel, scope_of, nodes in modules():
        for node in nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stores = [t for target in targets for t in ast.walk(target)]
                if any(isinstance(t, ast.Attribute) and t.attr == "args" for t in stores):
                    found.append((rel, scope_of(node)))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = {ast.unparse(t).rpartition(".")[2] for t in ast.walk(node.type)}
                raises = [n for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Raise) and n.exc]
                if caught & errors and any(ast.unparse(r.exc) != node.name for r in raises):
                    found.append((rel, scope_of(node)))
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


def test_only_the_naming_helper_puts_a_source_in_front_of_a_fault():
    assert collections.Counter(namings()) == collections.Counter(NAMING_ALLOWED)


def test_the_scan_sees_a_fault_rewritten_or_copied(tmp_path, monkeypatch):
    (tmp_path / "rogue.py").write_text(
        "from .core import ConfigError, MobanomError, core\n"
        "def rename(exc, path):\n"
        "    exc.args = (f'{path}: {exc}',)\n"
        "    exc.args, exc.source = (), path\n"
        "def wrap(path):\n"
        "    try:\n"
        "        load(path)\n"
        "    except (OSError, core.InvalidInputError) as exc:\n"
        "        raise ConfigError(f'{path}: {exc}') from exc\n"
        "    except ValueError as exc:\n"
        "        raise ConfigError(str(exc)) from None\n"
        "    except MobanomError as exc:\n"
        "        raise exc\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert collections.Counter(namings()) == {("rogue.py", "rename"): 2, ("rogue.py", "wrap"): 1}


def configparser_uses():
    """Every import, name or string of ``configparser`` (a string as ``__import__`` takes it), as (file, enclosing
    function)."""
    found = []
    for rel, scope_of, nodes in modules():
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, (ast.Name, ast.Constant)):
                names = [node.id if isinstance(node, ast.Name) else node.value]
            else:
                continue
            if any(str(name).partition(".")[0] == "configparser" for name in names):
                found.append((rel, scope_of(node)))
    return found


def test_only_the_config_reader_uses_configparser():
    # so a config file has one reader, one set of sections and one check of the whole file
    assert set(configparser_uses()) == {("cli.py", "_read_config")}


def test_the_scan_sees_configparser_used_elsewhere(tmp_path, monkeypatch):
    (tmp_path / "rogue.py").write_text(
        "import configparser\n"
        "from configparser import ConfigParser\n"
        "import configparser as cp, os\n"
        "def read(path):\n"
        "    return configparser.ConfigParser().read(path)\n"
        "def load(name='configparser'):\n"
        "    return __import__(name)\n"
        "def keep(text):\n"
        "    return 'configparser-free ' + text\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert collections.Counter(configparser_uses()) == {("rogue.py", "<module>"): 3, ("rogue.py", "read"): 1,
                                                        ("rogue.py", "load"): 1}


def unfrozen_dataclasses(path) -> list[str]:
    """The classes in the module at ``path`` decorated with ``dataclass`` but not with ``frozen=True``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for decorator in node.decorator_list if isinstance(node, ast.ClassDef) else ():
            call = decorator if isinstance(decorator, ast.Call) else None
            if ast.unparse(call.func if call else decorator).rpartition(".")[2] != "dataclass":
                continue
            keywords = {k.arg: ast.unparse(k.value) for k in call.keywords} if call else {}
            if keywords.get("frozen") != "True":
                found.append(node.name)
    return found


def test_every_record_of_core_is_frozen():
    # a record checks itself when it is built, which holds only if it cannot change after
    assert unfrozen_dataclasses(SRC / "core.py") == []


def test_the_scan_sees_a_record_that_is_not_frozen(tmp_path):
    (tmp_path / "core.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=False)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n"
        "@dataclass(frozen=True)\nclass D:\n    x: int\n"
        "@dataclasses.dataclass(order=True, frozen=True)\nclass E:\n    x: int\n"
        "class F:\n    x: int\n"
    )
    assert unfrozen_dataclasses(tmp_path / "core.py") == ["A", "B", "C"]
