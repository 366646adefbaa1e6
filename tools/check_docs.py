"""Docs-freshness check: the documented CLI must be the real CLI.

Stdlib-only (it AST-parses the CLI module instead of importing it, so
it runs without numpy in a bare CI job).  Two directions:

* every ``python -m repro <subcommand>`` mentioned in README.md or
  docs/*.md must name a subcommand the parser actually registers;
* every registered subcommand must be mentioned in README.md — the
  front door may not silently fall behind the CLI.

The same discipline covers the scenario catalog: README's
"Scenario catalog" table must list exactly the entries registered via
``@register_scenario(...)`` in ``src/repro/scenarios/catalog.py`` —
no ghosts, no omissions.

And the environment knobs: every ``REPRO_*`` name in README.md,
docs/*.md or benchmarks/README.md must be the value of an ``ENV_*``
constant in ``src/repro/config.py``, the one module that reads them —
a deleted knob may not live on in the docs.

And the campaign kinds: the ``### `<Name>Spec` `` headings of
docs/API.md must name exactly the classes listed in ``SPEC_KINDS`` in
``src/repro/campaigns/specs.py`` (``Sweep`` is a wrapper, not a kind) —
a retired kind may not keep its section, nor a new one go without.

Run: ``python tools/check_docs.py`` (exit 1 on drift).
"""

import ast
import re
import sys
from pathlib import Path

CLI = Path("src/repro/campaigns/cli.py")
CATALOG = Path("src/repro/scenarios/catalog.py")
CONFIG = Path("src/repro/config.py")
SPECS = Path("src/repro/campaigns/specs.py")
API = Path("docs/API.md")
DOCS = ("README.md", "docs")

#: ``python -m repro run|validate spec.json`` → ["run", "validate"].
MENTION = re.compile(r"python -m repro\s+([a-z0-9|-]+)")

#: A catalog-table row: ``| `entry-name` | ... |``.
TABLE_ROW = re.compile(r"^\|\s*`([a-z0-9-]+)`\s*\|")

#: An environment knob name: ``REPRO_SAMPLES``, ``REPRO_JSON_DIR``.
KNOB = re.compile(r"REPRO_[A-Z][A-Z_]*")

#: A spec-kind section heading: ``### `MemorySpec` — ...``.
SPEC_HEADING = re.compile(r"^### `([A-Za-z0-9_]+Spec)`", re.MULTILINE)


def registered_subcommands(root: Path) -> set:
    """Names passed to ``add_parser(...)`` in the CLI module."""
    tree = ast.parse((root / CLI).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_parser"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            names.add(node.args[0].value)
    return names


def documented_subcommands(root: Path):
    """Every CLI mention in the docs, as (file, subcommand) pairs."""
    paths = [root / "README.md"]
    paths.extend(sorted((root / "docs").glob("*.md")))
    for path in paths:
        if not path.is_file():
            continue
        for match in MENTION.finditer(path.read_text(encoding="utf-8")):
            for name in match.group(1).split("|"):
                yield path.relative_to(root), name


def registered_scenarios(root: Path) -> set:
    """Names passed to ``register_scenario(...)`` in the catalog module.

    Empty when the catalog module does not exist (pre-scenario trees,
    the drift-test fixtures).
    """
    path = root / CATALOG
    if not path.is_file():
        return set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "register_scenario"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            names.add(node.args[0].value)
    return names


def documented_scenarios(root: Path) -> set:
    """Entry names in README's "Scenario catalog" table."""
    readme = root / "README.md"
    if not readme.is_file():
        return set()
    names = set()
    in_section = False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            in_section = line.strip() == "## Scenario catalog"
            continue
        if in_section:
            match = TABLE_ROW.match(line)
            if match:
                names.add(match.group(1))
    return names


def _catalog_problems(root: Path) -> list:
    real = registered_scenarios(root)
    if not real:
        return []  # no catalog module: nothing to keep honest
    documented = documented_scenarios(root)
    problems = []
    for name in sorted(documented - real):
        problems.append(
            f"README.md: scenario-catalog table lists `{name}`, which "
            f"{CATALOG} does not register "
            f"(has: {', '.join(sorted(real))})")
    for name in sorted(real - documented):
        problems.append(
            f"README.md: scenario `{name}` is registered in {CATALOG} "
            "but missing from the Scenario catalog table")
    return problems


def registered_knobs(root: Path) -> set:
    """Values of the ``ENV_* = "REPRO_..."`` constants in the config module."""
    path = root / CONFIG
    if not path.is_file():
        return set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                and any(isinstance(t, ast.Name) and t.id.startswith("ENV_")
                        for t in node.targets)):
            names.add(node.value.value)
    return names


def documented_knobs(root: Path):
    """Every ``REPRO_*`` token in the docs, as (file, knob) pairs."""
    paths = [root / "README.md"]
    paths.extend(sorted((root / "docs").glob("*.md")))
    paths.append(root / "benchmarks" / "README.md")
    for path in paths:
        if not path.is_file():
            continue
        for match in KNOB.finditer(path.read_text(encoding="utf-8")):
            yield path.relative_to(root), match.group(0)


def _knob_problems(root: Path) -> list:
    real = registered_knobs(root)
    return [f"{path}: documents `{name}`, which {CONFIG} does not define "
            "as an ENV_* constant"
            for path, name in sorted(set(documented_knobs(root)))
            if name not in real]


def registered_spec_kinds(root: Path) -> set | None:
    """Class names in the ``SPEC_KINDS`` table of the specs module.

    ``None`` when the module has no such table (a refactor the check
    must hear about); empty when the module does not exist (the
    drift-test fixtures).
    """
    path = root / SPECS
    if not path.is_file():
        return set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == "SPEC_KINDS"
                and isinstance(node.value, ast.DictComp)):
            classes = node.value.generators[0].iter
            if isinstance(classes, ast.Tuple):
                return {elt.id for elt in classes.elts
                        if isinstance(elt, ast.Name)}
    return None


def documented_spec_kinds(root: Path) -> set:
    """Class names of the ``### `<Name>Spec` `` headings in docs/API.md."""
    path = root / API
    if not path.is_file():
        return set()
    return set(SPEC_HEADING.findall(path.read_text(encoding="utf-8")))


def _spec_kind_problems(root: Path) -> list:
    real = registered_spec_kinds(root)
    if real is None:
        return [f"{SPECS}: no `SPEC_KINDS = {{cls.kind: cls for cls in "
                "(...)}}` table found — moved?"]
    if not real:
        return []  # no specs module: nothing to keep honest
    documented = documented_spec_kinds(root)
    problems = []
    for name in sorted(documented - real):
        problems.append(
            f"{API}: documents spec kind `{name}`, which SPEC_KINDS in "
            f"{SPECS} does not list (has: {', '.join(sorted(real))})")
    for name in sorted(real - documented):
        problems.append(
            f"{API}: spec kind `{name}` is listed in SPEC_KINDS of "
            f"{SPECS} but has no ### section")
    return problems


def main(root: Path = Path(__file__).resolve().parent.parent) -> int:
    real = registered_subcommands(root)
    if not real:
        print(f"check_docs: no subcommands found in {CLI} — parser moved?")
        return 1
    problems = []
    seen_in_readme = set()
    for path, name in documented_subcommands(root):
        if name not in real:
            problems.append(
                f"{path}: documents `python -m repro {name}`, which the "
                f"CLI does not register (has: {', '.join(sorted(real))})")
        elif path.name == "README.md":
            seen_in_readme.add(name)
    for name in sorted(real - seen_in_readme):
        problems.append(
            f"README.md: subcommand `{name}` is registered in {CLI} "
            "but never shown as `python -m repro " + name + "`")
    problems.extend(_catalog_problems(root))
    problems.extend(_knob_problems(root))
    problems.extend(_spec_kind_problems(root))
    for problem in problems:
        print(f"check_docs: {problem}")
    if not problems:
        scenarios = registered_scenarios(root)
        print(f"check_docs: clean ({len(real)} subcommands, "
              f"{len(scenarios)} catalog scenarios, "
              f"{len(registered_knobs(root))} env knobs, "
              f"{len(registered_spec_kinds(root))} spec kinds, "
              "README + docs/ in sync)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
