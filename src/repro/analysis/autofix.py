"""Mechanical autofixes for ``lint --fix``.

Only rules whose remediation is a local, semantics-preserving rewrite
are fixable; everything else stays a human's job.  Supported:

======= =============================================================
MPI002  magic tag literal -> named module constant.  An existing
        ``TAG_*`` constant with the same value is reused; otherwise a
        ``TAG_AUTO_<value>`` constant is inserted after the imports.
DET002  ``random.X(...)`` in rank code -> ``random.Random(<rank>).X(...)``
        seeded with the rank program's ``ctx.rank``/``comm.rank`` (the
        fix the rule's hint prescribes).  Calls in functions with no
        ctx/comm parameter are left alone — there is no seed to name.
======= =============================================================

Both rewrites are idempotent by construction: a named tag constant is
no longer a literal, and ``random.Random(...)`` hangs the method off a
call, not the bare module name, so re-linting fixed source is clean and
re-fixing it is a no-op.  ``tests/analysis/test_autofix.py`` pins the
fix-then-relint-clean property.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import CTX_ANNOTATIONS, P2P_CALLS, \
    ModuleContext, call_name, int_literals_in, tag_args
from repro.analysis.checks_det import _RANDOM_OK, _import_aliases

FIXABLE_RULES = ("MPI002", "DET002")


def _existing_tag_name(mod: ModuleContext, value: int) -> str | None:
    for name, expr in sorted(mod.module_consts.items()):
        if name.startswith("TAG") and isinstance(expr, ast.Constant) \
                and expr.value == value:
            return name
    return None


def _insert_line(mod: ModuleContext) -> int:
    """1-based line *after* which new constants go: end of the import
    block, else end of the module docstring, else the top."""
    line = 0
    body = mod.tree.body
    if body and isinstance(body[0], ast.Expr) and \
            isinstance(body[0].value, ast.Constant) and \
            isinstance(body[0].value.value, str):
        line = body[0].end_lineno or body[0].lineno
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            line = max(line, stmt.end_lineno or stmt.lineno)
    return line


def _rank_seed(mod: ModuleContext, node: ast.AST) -> str | None:
    """The seed expression for a DET002 fix: the enclosing rank
    function's context parameter, as ``<param>.rank``."""
    for fn in mod.enclosing_functions(node):
        args = getattr(fn, "args", None)
        if args is None:
            continue
        for param in list(args.posonlyargs) + list(args.args) \
                + list(args.kwonlyargs):
            if param.arg in ("ctx", "comm"):
                return f"{param.arg}.rank"
            ann = getattr(param, "annotation", None)
            if ann is not None and any(
                    marker in ast.dump(ann) for marker in CTX_ANNOTATIONS):
                return f"{param.arg}.rank"
    return None


def fix_source(source: str, path: str = "<string>", *,
               rules=FIXABLE_RULES) -> tuple[str, int]:
    """Apply the mechanical fixes; returns (new_source, fix_count)."""
    try:
        mod = ModuleContext(path, source)
    except SyntaxError:
        return source, 0
    lines = source.splitlines(keepends=True)
    # edits: (line, col, end_col, replacement) — applied bottom-up so
    # earlier edits never shift later spans
    edits: list[tuple[int, int, int, str]] = []
    new_consts: dict[int, str] = {}

    if "MPI002" in rules:
        for node in mod.walk_rank(ast.Call):
            if call_name(node) not in P2P_CALLS:
                continue
            # every tag expression of the call (sendrecv has two): the
            # checker reports once per call, but a clean relint needs
            # every literal gone
            for tag_expr in tag_args(node):
                lit = next((c for c in int_literals_in(tag_expr)
                            if c.value != 0), None)
                if lit is None or lit.lineno != lit.end_lineno:
                    continue
                name = _existing_tag_name(mod, lit.value)
                if name is None:
                    name = new_consts.get(lit.value)
                if name is None:
                    name = f"TAG_AUTO_{lit.value}"
                    new_consts[lit.value] = name
                edits.append((lit.lineno, lit.col_offset,
                              lit.end_col_offset, name))

    if "DET002" in rules:
        aliases, _members = _import_aliases(mod, "random")
        for node in mod.walk_rank(ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            if not (isinstance(base, ast.Name) and base.id in aliases
                    and call_name(node) not in _RANDOM_OK):
                continue
            if base.lineno != base.end_lineno:
                continue
            seed = _rank_seed(mod, node)
            if seed is None:
                continue
            edits.append((base.lineno, base.col_offset,
                          base.end_col_offset,
                          f"{base.id}.Random({seed})"))

    if not edits:
        return source, 0
    for line, col, end_col, replacement in sorted(edits, reverse=True):
        text = lines[line - 1]
        lines[line - 1] = text[:col] + replacement + text[end_col:]
    if new_consts:
        at = _insert_line(mod)
        block = [f"{name} = {value}\n"
                 for value, name in sorted(new_consts.items())]
        if at == 0:
            lines = block + ["\n"] + lines
        else:
            lines = lines[:at] + ["\n"] + block + lines[at:]
    return "".join(lines), len(edits)


def fix_paths(paths) -> dict[str, int]:
    """Fix every file under *paths* in place; path -> fix count."""
    from repro.analysis.linter import iter_python_files

    fixed: dict[str, int] = {}
    for filename in iter_python_files(paths):
        try:
            with open(filename, encoding="utf-8") as fh:
                source = fh.read()
        except OSError:
            continue
        new_source, count = fix_source(source, filename)
        if count:
            with open(filename, "w", encoding="utf-8") as fh:
                fh.write(new_source)
            fixed[filename] = count
    return fixed


__all__ = ["FIXABLE_RULES", "fix_paths", "fix_source"]
