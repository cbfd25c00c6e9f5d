# virtual-path: src/repro/sweep/bad_json.py
# JSON writers that let NaN/Infinity through.
import json
from json import dumps


def journal_line(record):
    return json.dumps(record, sort_keys=True)


def save(payload, fh):
    json.dump(payload, fh, allow_nan=True)


def report(records):
    return dumps(records, indent=2)


def forwarded(payload, **options):
    # allow_nan may hide in the mapping; the writer must say it.
    return json.dumps(payload, **options)
