"""A static probe for dead code: every function, method and class that `src/` defines is
referenced somewhere else in `src/`, or is named below with the reason it stays.

The probe goes by name, so a definition that shares its name with a referenced one (a
method of the same name on another class) passes unseen."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "frobwdvv"

# what no code in src/ calls, kept on purpose (README, "Definitions no command calls")
KEPT = {
    "check_product_identity": "a Legendre hat check that the benchmark's tracer times; "
                              "waits to join the `legendre` report (ROADMAP item 12)",
    "check_structure_transport": "a Legendre hat check that the benchmark's tracer times; "
                                 "waits to join the `legendre` report (ROADMAP item 12)",
    "evaluate_exact": "the benchmark's tracer wraps it by name; waits to move under tests/ "
                      "(ROADMAP item 12)",
    "evaluate": "the benchmark's tracer wraps it by name",
    "frame_invariance_report": "a benchmark entry point (monodromy-sweep); waits for "
                               "`monodromy --kappa` (ROADMAP items 12 and 14)",
    "hamiltonians_and_closedness": "a benchmark entry point (monodromy-sweep); waits to join "
                                   "the `monodromy` report (ROADMAP item 12)",
    "phi_orthogonality_residual": "a benchmark entry point (monodromy-sweep); waits to join "
                                  "the `monodromy` report (ROADMAP item 12)",
    "solve_ckl_and_a": "a benchmark entry point (coefficient-recursions); waits to move under "
                       "tests/ (ROADMAP item 12)",
    "verify_pointwise": "a benchmark entry point (coefficient-recursions); waits to join the "
                        "`legendre` report (ROADMAP item 12)",
}


def unreferenced_definitions(root: Path) -> dict:
    """{name: "file:line"} of each function, method or class defined under root whose name
    occurs nowhere under root as a name or an attribute.  Dunder methods are left out: the
    language calls them."""
    defs, refs = {}, set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return {name: where for name, where in defs.items() if name not in refs}


def test_every_definition_in_src_is_referenced_or_kept():
    dead = unreferenced_definitions(SRC)
    assert {n: w for n, w in dead.items() if n not in KEPT} == {}, "dead definitions"
    # a kept name that gained a caller leaves the list
    assert sorted(set(KEPT) - set(dead)) == []


def test_the_probe_finds_a_dead_definition(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n    def used(self):\n        return helper()\n    def unused(self):\n"
        "        pass\n    def __add__(self, other):\n        pass\n\n"
        "def helper():\n    return A().used\n\nclass B:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == {"unused": "m.py:4", "B": "m.py:12"}
