"""The README's library quick start runs and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, f"README.md holds {len(blocks)} python blocks, expected 1"
    return blocks[0]


def run_statements(source: str) -> dict:
    """Run ``source`` statement by statement; each expression statement's value by its text."""
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                                namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_quick_start_values():
    source = quick_start()
    values = run_statements(source)
    # a trailing comment states the value: exactly, or its leading digits before "..."
    stated = {}
    for line in source.splitlines():
        text, _, comment = line.partition("#")
        text, comment = text.strip(), comment.strip()
        if text in values and comment:
            stated[text.split("(")[0]] = comment
            value = values[text]
            if comment.endswith("..."):
                assert str(value).startswith(comment[:-3]), (text, value, comment)
            else:
                assert value == ast.literal_eval(comment), (text, value, comment)
    assert stated == {
        "cl.k_ex_ante": "27", "cl.k_bayesian": "44", "cl.liar_threshold": "133",
        "cl.n_zero": "107", "cl.ex_ante_utility": "0.67757...",
        "cl.interim_utility": "0.48363...", "cl.verify_setting_certificate": "True",
        "cl.bne_check": "(True, 0.0)",
    }
    # the grouped-peer line gives the same float as the explicit profile
    grouped = [v for text, v in values.items() if text.startswith("cl.member_utility(")]
    explicit = [v for text, v in values.items() if text.startswith("cl.ex_ante_utility(")]
    assert len(grouped) == len(explicit) == 1 and grouped[0] == explicit[0]
