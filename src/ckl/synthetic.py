"""Deterministic toy corpora for experiments and demos.

Every sample pairs a short dialogue with a handful of knowledge sentences and
copies one of those sentences as the response. The copied sentence is the one
whose topic word appears in the post, so both response generation and
knowledge weighting have a clean learnable signal.
"""

from __future__ import annotations

import numpy as np

from .corpus import DialogueSample, write_json_lines

TOPICS = [
    "guitars", "volcanoes", "penguins", "bridges", "comets", "castles",
    "engines", "forests", "glaciers", "harbors", "islands", "jungles",
    "kites", "lanterns", "magnets", "nebulas", "orchids", "pyramids",
    "quarries", "rivers", "saunas", "tunnels", "umbrellas", "violins",
    "windmills",
]

QUALITIES = [
    "ancient", "bright", "calm", "deep", "elegant", "fragile", "gentle",
    "hollow", "iconic", "jagged", "keen", "luminous", "massive", "narrow",
    "ornate",
]

GREETINGS = ["hello there", "good morning", "hey again", "nice to see you"]


def _sentence(topic: str, quality: str) -> str:
    return f"the {topic} are {quality} and {quality} again"


def overfit_corpus(n: int = 16, seed: int = 0) -> list[DialogueSample]:
    """n samples with distinct topics and one distractor sentence each."""
    if n > len(TOPICS):
        raise ValueError(f"at most {len(TOPICS)} distinct topics available")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        topic = TOPICS[i]
        other = TOPICS[(i + 7) % n]
        quality = QUALITIES[i % len(QUALITIES)]
        other_quality = QUALITIES[(i + 3) % len(QUALITIES)]
        relevant = _sentence(topic, quality)
        distractor = _sentence(other, other_quality)
        knowledge = [relevant, distractor] if rng.random() < 0.5 else [distractor, relevant]
        samples.append(
            DialogueSample(
                context=[GREETINGS[i % len(GREETINGS)], f"tell me about the {topic}"],
                knowledge=knowledge,
                response=relevant,
            )
        )
    return samples


def retrieval_corpus(n: int = 500, n_knowledge: int = 3, seed: int = 0) -> list[DialogueSample]:
    """Samples whose response copies the knowledge sentence matching the post.

    The relevant sentence lands at a uniformly random position, so a ranking
    that just trusts the original order scores 1/n_knowledge.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        picks = rng.choice(len(TOPICS), size=n_knowledge, replace=False)
        qualities = rng.choice(len(QUALITIES), size=n_knowledge, replace=True)
        target = int(rng.integers(n_knowledge))
        knowledge = [
            _sentence(TOPICS[t], QUALITIES[q]) for t, q in zip(picks, qualities)
        ]
        topic = TOPICS[picks[target]]
        samples.append(
            DialogueSample(
                context=[
                    GREETINGS[int(rng.integers(len(GREETINGS)))],
                    f"tell me about the {topic}",
                ],
                knowledge=knowledge,
                response=knowledge[target],
            )
        )
    return samples


def write_jsonl(path, samples: list[DialogueSample]) -> None:
    write_json_lines(path, ({"context": s.context, "knowledge": s.knowledge, "response": s.response} for s in samples))
