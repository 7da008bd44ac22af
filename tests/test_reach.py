"""Every definition of the package, class members too, is reachable from the CLI.

The walk is by name over the source: it starts from the top-level
definitions of cli.py (and the statements any module runs at import) and
follows bare names, `module.attr` references and `from .x import y`
imports, including the lazy ones inside the command handlers.  A member
`Class.name` -- a method, a property or a dataclass field -- is reached
when its class is reached and some reached definition reads `.name` on
any object or calls `getattr(obj, "name")` (dunder methods come with
their class).  Writing `.name`, or passing name= to a constructor, is no
read: a field that is only ever filled in carries a value nothing uses.
A function, class, member or constant no path reaches is dead weight in
the package: delete it, or move it to the tests when a test compares
live code against it.  `__all__` lists names; it does not use them.

Members are matched by name alone, since the walk does not know the type
of the object left of the dot.  So a member that shares its name with a
reached one is not caught: any `.matrix` keeps every `matrix` member
alive, which is how `ChargeFamily.matrix` outlived its last caller next
to the live `TwoQubitGate.matrix`.  The same holds for fields named like
a live attribute (`u`, `k`, `L`, `boundary`, `metadata`, ...).  Such a
member must be found by hand.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcbrick"

# (module, name) -> why it stays although no CLI path reaches it
ALLOWED = {
    ("levelstats", "full_spectrum"):
        "binds levelstats.build_propagator, which the benchmark's tracing test patches",
}


def _relative_module(node):
    """Package module a `from .x import ...` names, or None for other imports."""
    if node.level != 1:
        return None
    return node.module or "__init__"


def _is_dataclass(node):
    """Whether a class is decorated with dataclass, called or not."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


class _Module:
    """Definitions of one module, class members included, and the names each uses."""

    def __init__(self, path, package):
        self.name = path.stem
        self.package = package
        tree = ast.parse(path.read_text(), filename=str(path))
        self.defs = {}        # name or "Class.member" -> the nodes that define it
        self.members = []     # (class, member) of every method, property and field
        self.runs = []        # statements executed at import that define nothing
        self.aliases = {}     # local name -> (module, attr) or (module, None)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # the class keeps its decorators, bases and other statements;
                # methods and dataclass fields stand alone
                shell = self.defs.setdefault(node.name, [])
                shell += node.decorator_list + node.bases + node.keywords
                fields = _is_dataclass(node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        member = item.name
                    elif (fields and isinstance(item, ast.AnnAssign)
                          and isinstance(item.target, ast.Name)):
                        member = item.target.id
                    else:
                        shell.append(item)
                        continue
                    self.defs.setdefault(f"{node.name}.{member}", []).append(item)
                    self.members.append((node.name, member))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                if names == ["__all__"]:
                    continue
                for name in names:
                    self.defs.setdefault(name, []).append(node)
            elif isinstance(node, ast.ImportFrom):
                self.aliases.update(_bindings(node, package))
            elif not isinstance(node, ast.Import) and not _is_docstring(node):
                self.runs.append(node)

    def uses(self, nodes):
        """(module, name) pairs the given nodes reference."""
        out = set()
        for node in nodes:
            # a lazy import inside a handler binds its names for that handler
            aliases = dict(self.aliases)
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    aliases.update(_bindings(sub, self.package))
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    out.update(t for t in _bindings(sub, self.package).values()
                               if t[1] is not None)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    target = aliases.get(sub.value.id)
                    if target is not None and target[1] is None:
                        out.add((target[0], sub.attr))
                elif isinstance(sub, ast.Name):
                    if sub.id in self.defs:
                        out.add((self.name, sub.id))
                    elif sub.id in aliases and aliases[sub.id][1] is not None:
                        out.add(aliases[sub.id])
        return out


def _bindings(node, package):
    """local name -> (module, attr) of a `from .x import ...`; attr None for a module."""
    module = _relative_module(node)
    if module is None:
        return {}
    out = {}
    for alias in node.names:
        if module == "__init__" and (package / f"{alias.name}.py").exists():
            out[alias.asname or alias.name] = (alias.name, None)
        else:
            out[alias.asname or alias.name] = (module, alias.name)
    return out


def _is_docstring(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def _reads(nodes):
    """Names read as `.name`, or by getattr(obj, "name"), anywhere in the given nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add(sub.attr)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id == "getattr" and len(sub.args) >= 2
                  and isinstance(sub.args[1], ast.Constant)
                  and isinstance(sub.args[1].value, str)):
                out.add(sub.args[1].value)
    return out


def unreachable(package=PACKAGE):
    """(module, name) definitions no CLI path reaches, sorted; members as Class.name."""
    modules = {m.name: m for m in (_Module(p, package) for p in sorted(package.glob("*.py")))}
    todo = [("cli", name) for name in modules["cli"].defs if "." not in name]
    todo += [ref for m in modules.values() for ref in m.uses(m.runs)]
    reads = {name for m in modules.values() for name in _reads(m.runs)}
    seen = set()
    while todo:
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            module = modules.get(key[0])
            if module is not None and key[1] in module.defs:
                todo.extend(module.uses(module.defs[key[1]]))
                reads |= _reads(module.defs[key[1]])
        # members of reached classes that a reached definition reads
        todo = [
            (m.name, f"{cls}.{name}")
            for m in modules.values()
            for cls, name in m.members
            if (m.name, cls) in seen
            and (name in reads or name.startswith("__"))
            and (m.name, f"{cls}.{name}") not in seen
        ]
    return sorted(
        (m.name, name) for m in modules.values() for name in m.defs if (m.name, name) not in seen
    )


def test_every_definition_is_reached_from_the_cli():
    dead = [key for key in unreachable() if key not in ALLOWED]
    assert dead == [], "unreachable from cli.py: " + ", ".join(".".join(k) for k in dead)


def test_every_allowlist_entry_is_still_needed():
    assert set(ALLOWED) <= set(unreachable())
    assert all(reason for reason in ALLOWED.values())


def test_walker_reports_dataclass_fields_nothing_reads(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from .result import build\n"
        "\n"
        "\n"
        "def main():\n"
        "    r = build()\n"
        "    r.written = 0\n"
        "    return r.dotted + getattr(r, 'named')\n"
    )
    (tmp_path / "result.py").write_text(
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    dotted: int\n"
        "    named: int\n"
        "    keyword_only: int = 0\n"
        "    written: int = field(default=0)\n"
        "\n"
        "\n"
        "class Plain:\n"
        "    note: str = 'not a dataclass, so no fields'\n"
        "\n"
        "\n"
        "def build():\n"
        "    Plain()\n"
        "    return Result(1, 2, keyword_only=3)\n"
    )
    assert unreachable(tmp_path) == [
        ("result", "Result.keyword_only"),
        ("result", "Result.written"),
    ]
