import sys
from pathlib import Path

HERE = Path(__file__).parent
# make the sibling oracles module importable regardless of invocation dir
sys.path.insert(0, str(HERE))
# the checkout's own package comes last, so a PYTHONPATH naming another
# copy's src tests that copy
sys.path.append(str(HERE.parent / "src"))
