"""The README's Python quick start runs and its comments state its results."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_values_match_its_comments():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    exec(block, ns)
    inv, hom, bq = ns["inv"], ns["hom"], ns["bq"]
    assert (inv.c, inv.c_prime, inv.m, hom["reg"], hom["pd"], bq.d, bq.d_prime) == (2, 3, 4, 3, 2, 4, 5)
    assert f"# c={inv.c}, c'={inv.c_prime}, m={inv.m} with witnesses" in block
    assert f"# {hom}" in block
    assert f"# d={bq.d}, d'={bq.d_prime};" in block
