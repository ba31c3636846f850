"""The Python example in README.md runs, and its comments hold.

Each statement of the one ``python`` block is run in turn.  A trailing
comment makes a claim about the statement's value when it reads as

* a Python literal (``# 2``, ``# False — prose``): the value equals it;
* ``Type(field=literal, ..., ...)``: the value is a ``Type`` whose
  fields equal those literals;
* a bare type name (``# IncidenceMatrix``): the value is of that type.

Any other comment is prose, and so is the text after an em dash.  The
test fails unless the claims it checked are the ones it expects, so a
claim that turns into prose is caught too.
"""
import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_example() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(),
                            re.S | re.M)
    assert len(blocks) == 1, "README.md should hold one python block"
    return blocks[0]


def check_claim(value, comment: str) -> str | None:
    """Assert the claim ``comment`` makes about ``value``; return what
    was checked, or None for prose."""
    claim = comment.split("—")[0].strip()
    try:
        expected = ast.literal_eval(claim)
    except (ValueError, SyntaxError):
        pass
    else:
        assert value == expected, (comment, value)
        return f"== {claim}"
    match = re.fullmatch(r"(\w+)(?:\((.*)\))?", claim)
    if match is None:
        return None
    name, fields = match.groups()
    if type(value).__name__ != name:
        return None
    checked = [name]
    for field in (fields or "").split(","):
        field = field.strip()
        if field in ("", "..."):
            continue
        key, _, literal = field.partition("=")
        assert getattr(value, key.strip()) == ast.literal_eval(literal), \
            (comment, value)
        checked.append(field)
    return " ".join(checked)


def test_python_example_runs_as_its_comments_say():
    source = readme_example()
    lines = source.splitlines()
    namespace: dict = {}
    claims = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                 namespace)
            targets = getattr(stmt, "targets", [])
            if len(targets) != 1 or not isinstance(targets[0], ast.Name):
                continue
            value = namespace[targets[0].id]
        _, hash_mark, comment = lines[stmt.end_lineno - 1].partition("#")
        if hash_mark:
            checked = check_claim(value, comment)
            if checked is not None:
                claims.append(checked)
    assert claims == [
        "PeriodResult pp=48 p=16",        # result
        "== 2",                           # minimal fold multiplier
        "IncidenceMatrix",                # square
        "Configuration v=16 k=4",         # a 16_4 configuration
        "== False",                       # not a projective plane
        "== 2",                           # automorphisms
        "== True",                        # isomorphic to the Fano plane
    ]
