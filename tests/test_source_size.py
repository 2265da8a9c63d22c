import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qfibath"

# CPython's parser doubles its token buffer at 4,096 tokens
TOKEN_LIMIT = 4096


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_stays_below_the_token_limit(module):
    tokens = list(tokenize.tokenize(io.BytesIO(module.read_bytes()).readline))
    assert len(tokens) < TOKEN_LIMIT, f"{module.name}: {len(tokens)} tokens"
