"""README's lists of settable keys match the code, so adding or deleting a
provider field or a --config key cannot leave the documentation behind."""
from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from taxocat import cli, gateway as gw

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_provider_example_lists_every_provider_config_field():
    intro = README.index("pass `--provider config.json`")
    start = README.index("```json\n", intro) + len("```json\n")
    example = json.loads(README[start:README.index("```", start)])
    assert list(example) == [field.name for field in dataclasses.fields(gw.ProviderConfig)]
    gw.ProviderConfig(**example)  # and every example value is valid


def test_config_paragraph_lists_every_run_default_key():
    start = README.index("The `--config` file is a JSON object with any of")
    sentence = README[start:README.index(".", start)]
    assert re.findall(r"`([a-z_]+)`", sentence) == list(cli.RUN_DEFAULT_TYPES)
