import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI (GitHub Actions sets CI=true) runs property tests derandomized and prints
# the reproduction blob of a failing example, so a red run reproduces locally
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
