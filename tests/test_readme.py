"""The examples in README.md run, and say what they print.

Each command-line example, an ``sh`` block followed by an output block,
is run in an empty directory, and its last command must print that
output.  The ``python`` block's comments are checked as follows.

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
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_blocks() -> list[tuple[str, str, str]]:
    """(text before the block, language, body) of each fenced block."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return re.findall(r"(.*?)^```(\w*)\n(.*?)^```\n", fh.read(),
                          re.S | re.M)


def readme_example() -> str:
    blocks = [body for _, lang, body in readme_blocks() if lang == "python"]
    assert len(blocks) == 1, "README.md should hold one python block"
    return blocks[0]


def shell_examples() -> list[tuple[str, str]]:
    """(commands, output) of each ``sh`` block that an output block
    follows with nothing but blank lines between them."""
    blocks = readme_blocks()
    return [(body, output) for (_, lang, body), (gap, out_lang, output)
            in zip(blocks, blocks[1:])
            if lang == "sh" and out_lang == "" and not gap.strip()]


EXAMPLES = shell_examples()


def test_every_output_block_is_checked():
    assert [body.splitlines()[-1].split()[:2] for body, _ in EXAMPLES] == [
        ["rectfree", command]
        for command in ("gen", "period", "fold", "verify", "galfs")]


@pytest.mark.parametrize("commands, output", EXAMPLES, ids=[
    body.splitlines()[-1].split()[1] for body, _ in EXAMPLES])
def test_shell_example_prints_its_output(tmp_path, commands, output):
    env = {k: v for k, v in os.environ.items()
           if k != "RECTFREE_CHECKPOINT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    rectfree = f"{shlex.quote(sys.executable)} -m rectfree "
    for line in commands.splitlines():
        if line.startswith("rectfree "):
            line = rectfree + line[len("rectfree "):]
        done = subprocess.run(line, shell=True, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (line, done.stderr)
    assert done.stdout == output


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
