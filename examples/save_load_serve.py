"""Serve a trained model: fit -> save -> load -> batched inference.

Fits Source-LDA on a tiny corpus, publishes the fitted model into a
versioned registry as a schema-v2 artifact (uncompressed, mappable
phi), reloads it memory-mapped in a "serving process", and answers
batched topic queries for raw, unseen text — including out-of-vocabulary
words, which the session drops and reports.  The worker-sharded session
(`num_workers`) answers bit-identically at every worker count, so the
single-worker run below is exactly what a multi-process deployment
would serve.

Run:  python examples/save_load_serve.py
"""

import tempfile

from repro import Corpus, KnowledgeSource, SourceLDA
from repro.serving import InferenceSession, ModelRegistry

DOCUMENTS = [
    "pencil eraser notebook pencil ruler classroom pencil paper",
    "ruler notebook pencil crayon paper classroom school eraser",
    "umpire baseball inning pitcher baseball glove strike bat",
    "baseball bat ball umpire pitcher inning team game",
    "pencil paper notebook school baseball game classroom crayon",
]

ARTICLES = {
    "School Supplies": (
        "pencil pencil pencil ruler ruler eraser eraser notebook notebook "
        "paper paper pen crayon scissors glue backpack school school "
        "classroom student").split(),
    "Baseball": (
        "baseball baseball baseball umpire umpire bat bat ball ball "
        "pitcher pitcher inning glove base team game game strike "
        "field").split(),
}

QUERIES = [
    "umpire called a strike and the pitcher threw to the glove",
    "notebook paper and a pencil for every student",
    "quarterly earnings were flat",          # entirely out of vocabulary
]


def main() -> None:
    corpus = Corpus.from_texts(DOCUMENTS, tokenizer=None)
    source = KnowledgeSource(ARTICLES)
    fitted = SourceLDA(source, num_unlabeled_topics=1, alpha=0.3).fit(
        corpus, iterations=150, seed=7)

    with tempfile.TemporaryDirectory() as root:
        # Training process: publish the fitted model.  mmap_phi writes
        # the schema-v2 artifact whose phi serving workers can share.
        registry = ModelRegistry(root)
        record = registry.publish("everyday-topics", fitted,
                                  model_class="SourceLDA",
                                  mmap_phi=True)
        print(f"published {record.name} v{record.version} "
              f"-> {record.path.name}/")

        # Serving process: resolve latest, reload with a memory-mapped
        # phi, answer queries.  num_workers > 1 shards the batch over
        # processes that map the same phi file — same bits, more cores.
        loaded = ModelRegistry(root).load("everyday-topics",
                                          mmap_phi=True)
        with InferenceSession(loaded, iterations=40, seed=0,
                              num_workers=1) as session:
            result = session.infer(QUERIES)
            # Rank from the result we already have — no second fold-in.
            top = session.top_topics(result, top_n=1)
        loaded.close()  # release the mapped phi before the dir goes

        print("\nquery -> dominant topic (in-vocab/OOV tokens):")
        for i, query in enumerate(QUERIES):
            best = top[i][0]
            label = best.label or "(unlabeled)"
            print(f"  {label:16s} p={best.probability:.2f} "
                  f"({result.num_tokens[i]}/{result.num_oov[i]}) "
                  f"| {query[:44]}")


if __name__ == "__main__":
    main()
