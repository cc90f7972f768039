"""The documentation names what the code defines."""

import dataclasses
import re
from pathlib import Path

from scenetok import PipelineConfig

DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_config_file_section_lists_every_config_field():
    text = (DOCS / "formats.md").read_text()
    section = text.split("## Pipeline config file", 1)[1].split("\n## ", 1)[0]
    listing = re.search(r"field names \((.*?)\)", section, re.DOTALL).group(1)
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(
        field.name for field in dataclasses.fields(PipelineConfig))
