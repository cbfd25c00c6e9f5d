# virtual-path: src/repro/eval/good_workers.py
# Canonical workers= spelling and call-site keywords into foreign APIs
# (which keep their own names).
from concurrent.futures import ThreadPoolExecutor


def run_pool(shots, *, workers=None):
    return shots, workers


def make_pool(workers):
    return ThreadPoolExecutor(max_workers=workers)
