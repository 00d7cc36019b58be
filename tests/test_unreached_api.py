"""No public function, class or method of the package is left that no code
reaches.

A public name (no leading underscore) defined at module level in
`src/coocmap`, or as a method of such a class, must be named somewhere in
`src/coocmap` or `perfbench/` outside its own definition. Tests do not
count: a name only a test reaches is dead API. A name counts as a variable,
an attribute, an imported name or a string constant (the tracer names its
targets by string). The check is by name, not by binding: a method is
reached when any attribute of that name is read."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coocmap"
READERS = ROOT / "perfbench"

# kept though no code reaches them, each with its reason
KEPT = {
    "synth.generate_corpus": "builds the acceptance suite's corpus",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def public_definitions(source: str) -> list[tuple[str, int, int]]:
    """(qualified name, first line, last line) of each public module-level
    function and class, and of each public method of a public class."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out.extend(
                (f"{node.name}.{item.name}", item.lineno, item.end_lineno)
                for item in node.body
                if isinstance(item, defs[:2]) and not item.name.startswith("_")
            )
    return out


def references(source: str) -> list[tuple[str, int]]:
    """(name, line) of every variable, attribute, imported name and string
    constant that spells a name or a dotted path (each of its parts)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.extend((part, node.lineno) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            out.extend((part, node.lineno) for part in node.value.split("."))
    return out


def unreached(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module.name` of each public definition of the `package` modules
    (name -> source) that no package or reader source names outside its own
    definition."""
    seen: dict[str, list[tuple[str, int]]] = {}
    for key, source in [*package.items(), *(("", s) for s in readers.values())]:
        for name, line in references(source):
            seen.setdefault(name, []).append((key, line))
    out = []
    for module, source in package.items():
        for qualname, first, last in public_definitions(source):
            uses = seen.get(qualname.rsplit(".", 1)[-1], [])
            if all(key == module and first <= line <= last for key, line in uses):
                out.append(f"{module}.{qualname}")
    return out


def _sources(directory: Path) -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(directory.glob("*.py"))}


def test_every_public_name_is_reached_or_kept_for_a_reason():
    found = unreached(_sources(SRC), _sources(READERS))
    assert sorted(set(found) - KEPT.keys()) == []
    # a kept name that is now reached, or gone, leaves the list
    assert sorted(KEPT.keys() - set(found)) == []


def test_the_check_counts_names_attributes_imports_and_strings():
    package = {
        "m": (
            "def dead():\n"
            "    return dead()\n"  # its own definition does not count
            "def called():\n"
            "    pass\n"
            "def traced():\n"
            "    pass\n"
            "def imported():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class Box:\n"
            "    def used(self):\n"
            "        return self.helper\n"
            "    def helper(self):\n"
            "        pass\n"
            "    def orphan(self):\n"
            "        pass\n"
            "    def _hidden(self):\n"
            "        pass\n"
            "called()\n"
            "Box().used()\n"
        ),
        "n": "from .m import imported\nTARGETS = ('m', 'traced')\n",
    }
    assert unreached(package, {}) == ["m.dead", "m.Box.orphan"]
    assert unreached(package, {"r.py": "x = 'm.dead'\nBox.orphan\n"}) == []
    del package["n"]
    assert unreached(package, {}) == ["m.dead", "m.traced", "m.imported", "m.Box.orphan"]
