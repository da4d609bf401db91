"""The README's "Configuration" section lists exactly the keys of `RunConfig`."""

import re
from dataclasses import fields
from pathlib import Path

from twcert.config import RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _configuration_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Configuration\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_readme_lists_exactly_the_config_keys():
    section = " ".join(_configuration_section().split())
    match = re.search(r"one record of (\d+) keys: (.*?\.)(?: |$)", section)
    assert match, "the Configuration section names its record of keys"
    keys = re.findall(r"`([a-z_]+)`", match.group(2))
    names = [f.name for f in fields(RunConfig)]
    assert keys == names
    assert int(match.group(1)) == len(names)
