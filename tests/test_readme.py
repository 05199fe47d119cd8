"""The README's examples run as written: every ``ini`` block is a valid config
and every ``python`` block executes."""

import re
from pathlib import Path

from horizonflux.config import config_to_text, parse_config_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language):
    found = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
    texts = [text for lang, text in found if lang == language]
    assert texts, f"README has no {language} block"
    return texts


def test_every_ini_block_parses():
    for text in blocks("ini"):
        parse_config_text(text)


def test_the_full_ini_block_sets_every_key_in_canonical_form():
    # the one block with an [output] section; a missing or removed key breaks the round trip
    (full,) = [text for text in blocks("ini") if "[output]" in text]
    assert config_to_text(parse_config_text(full)) == full + "\n"  # ends with a blank line


def test_every_python_block_runs():
    for text in blocks("python"):
        exec(compile(text, "README.md", "exec"), {"__name__": "readme"})
