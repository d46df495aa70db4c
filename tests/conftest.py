import os
import sys

# check mode: every value that nbase builds unvalidated (the outputs of
# compose, graft, normalize and embed) is validated as well; elements reads
# the flag once, at import, so it is set before any test module imports nbase
os.environ["NBASE_CHECK"] = "1"
sys.path.insert(0, os.path.dirname(__file__))
