# virtual-path: src/repro/sweep/good_json.py
# Strict JSON writers, readers, and other modules' dumps.
import json
import pickle
from json import dumps as to_json


def journal_line(record):
    return json.dumps(record, sort_keys=True, allow_nan=False)


def save(payload, fh):
    json.dump(payload, fh, indent=2, allow_nan=False)


def report(records):
    return to_json(records, allow_nan=False)


def load(text):
    return json.loads(text)


def blob(obj):
    return pickle.dumps(obj)
