import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_digest.py"


def test_trace_digest_is_deterministic():
    spec = importlib.util.spec_from_file_location("trace_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    first = module.digest()
    assert len(first) == 64 and int(first, 16) >= 0
    assert module.digest() == first
