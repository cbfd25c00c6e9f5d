# virtual-path: src/repro/eval/bad_workers.py
# Non-canonical worker-count spellings in function definitions.


def run_pool(shots, *, num_workers=None):
    return shots, num_workers


def shard(batch, n_jobs=1):
    return batch, n_jobs


async def serve(stream, *, max_workers=2):
    return stream, max_workers


def legacy_only(shots, *, decoder_workers=None):
    # The pre-unification spelling on its own.
    return shots, decoder_workers


def shim(shots, *, workers=None, decoder_workers=None):
    # The retired deprecation-shim shape: the alias is flagged even
    # with the canonical spelling bound beside it.
    return shots, workers, decoder_workers


class Spec:
    def __post_init__(self, decoder_workers):
        # Dataclass InitVar plumbing for the retired alias.
        return decoder_workers
