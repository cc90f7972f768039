"""The documentation names what the code defines."""

import dataclasses
import re
from pathlib import Path

from scenetok import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def test_config_file_section_lists_every_config_field():
    text = (DOCS / "formats.md").read_text()
    section = text.split("## Pipeline config file", 1)[1].split("\n## ", 1)[0]
    listing = re.search(r"field names \((.*?)\)", section, re.DOTALL).group(1)
    assert sorted(re.findall(r"`(\w+)`", listing)) == sorted(
        field.name for field in dataclasses.fields(PipelineConfig))


def test_readme_layout_names_every_module():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\S+)", block, re.MULTILINE)
    package = ROOT / "src" / "scenetok"
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules + ["fusion/"])
