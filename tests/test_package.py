"""Rules over the whole package and its README, read with the stdlib only.

- Every top-level public function or class in src/pirings has a caller in
  the package outside its own body, or is named in backticks in the README
  as part of the Python API.
- Every import in src/pirings is the standard library, numpy or the
  package itself: numpy is the only runtime dependency.
- No module in src/pirings or tests imports a top-level name it never
  reads.
- Only exact.py reads the attribute `terms`: how a PiScalar holds its
  powers of pi is known to that module alone.
- No module imports from sampling at module level, and only sampling
  imports numpy there: a command loads numpy only when it draws.
- No module imports sphere_ring at module level: only the `sphere`
  commands run it.
- The README's Python examples run and print what their comments say.
"""

import ast
import contextlib
import io
from pathlib import Path
import re
import sys
import tokenize

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pirings"
README = ROOT / "README.md"


def parsed_modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def referenced_names(tree, skip=None):
    """Names read as a bare name or an attribute anywhere in tree, except
    inside the node skip; strings (such as __all__ entries) do not count."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return names


def readme_backticked_names():
    """The names of the README's prose spans `a.b.c` or `a.b.c(...)`."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(),
                   flags=re.MULTILINE | re.DOTALL)
    dotted = (re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
              for span in re.findall(r"`([^`\n]+)`", prose))
    return {name for m in dotted if m for name in m[1].split(".")}


def uncalled_public_names():
    modules = parsed_modules()
    readme = readme_backticked_names()
    out = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in readme:
                continue
            if not any(node.name in referenced_names(
                    other, skip=node if other is tree else None)
                    for other in modules.values()):
                out.append(f"{stem}.{node.name}")
    return out


def test_every_public_name_has_a_caller_or_is_in_the_readme():
    assert uncalled_public_names() == []


def test_imports_are_stdlib_numpy_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"numpy", "pirings"}
    foreign = []
    for stem, tree in parsed_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [f"{stem}: {top}" for top in tops if top not in allowed]
    assert foreign == []


def test_only_exact_reads_piscalar_terms():
    readers = [stem for stem, tree in parsed_modules().items()
               if stem != "exact" and any(
                   isinstance(node, ast.Attribute) and node.attr == "terms"
                   for node in ast.walk(tree))]
    assert readers == []


def module_level_imports(tree):
    """The modules that the top-level statements of tree import, a
    relative one with its leading dots."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_only_sampling_loads_numpy_and_only_when_called():
    eager = [f"{stem}: {name}" for stem, tree in parsed_modules().items()
             for name in module_level_imports(tree)
             if name == ".sampling"
             or name.split(".")[0] == "numpy" and stem != "sampling"]
    assert eager == []


def test_no_module_imports_sphere_ring():
    importers = [stem for stem, tree in parsed_modules().items()
                 if ".sphere_ring" in module_level_imports(tree)]
    assert importers == []


def unread_imports(path):
    """The names that the top-level imports of the module at path bind and
    that no other part of it reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (name := alias.asname or alias.name.split(".")[0]) not in read]


def test_no_import_is_left_unread():
    unread = [f"{path.relative_to(ROOT)}: {name}"
              for path in sorted([*PACKAGE.glob("*.py"),
                                  *(ROOT / "tests").glob("*.py")])
              for name in unread_imports(path)]
    assert unread == []


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


def expected_prints(source):
    """The text each print call should print: the comment at the end of
    its last line, or on the line after it."""
    comments, alone = {}, set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments[tok.start[0]] = tok.string[1:].strip()
            if tok.line.lstrip().startswith("#"):
                alone.add(tok.start[0])
    expected = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            line = node.end_lineno
            comment = comments.get(
                line, comments[line + 1] if line + 1 in alone else None)
            assert comment is not None, f"print on line {line} has no comment"
            expected.append((node.lineno, comment))
    return [text for _, text in sorted(expected)]


def test_readme_python_examples_print_their_comments():
    blocks = readme_python_blocks()
    assert blocks
    for source in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(source, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected_prints(source)
