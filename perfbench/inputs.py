"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed it is given: the same seed
writes the same bytes.  The ontology follows the shape of the AudioSet
release (a "Music" subtree with top-level categories, abstract grouping
nodes, concrete non-leaf nodes such as "Guitar", and non-music roots), and
clip labels are drawn with Zipf-skewed leaf frequencies.

The label and caption parameters (Zipf s = 1.1, 1-4 leaves per clip at
25/35/25/15%, a second leaf in the first one's category half the time, one
clip in ten without music, 40% function words in captions) are assumptions
chosen by hand.  They are not fitted to AudioSet's or MusicCaps' published
counts; perfbench/README.md gives the skew they produce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MUSIC_ID = "/m/04rlf"

# (category name, {group name or None: [leaf names or (non-leaf name, [leaf names])]})
# A group named None puts its members directly under the category; other
# groups become abstract nodes, as AudioSet's "Plucked string instrument".
_MUSIC_TREE = {
    "Musical instrument": {
        "Plucked string instrument": [
            ("Guitar", ["Electric guitar", "Acoustic guitar", "Steel guitar", "Bass guitar",
                        "Tapping guitar"]),
            "Banjo", "Sitar", "Mandolin", "Zither", "Ukulele", "Harp",
        ],
        "Keyboard instrument": [
            ("Piano", ["Electric piano", "Grand piano"]),
            ("Organ", ["Electronic organ", "Hammond organ"]),
            "Synthesizer", "Harpsichord", "Sampler",
        ],
        "Percussion": [
            "Drum kit", "Drum machine", "Snare drum", "Bass drum", "Timpani", "Tabla",
            "Cymbal", "Hi-hat", "Tambourine", "Marimba", "Glockenspiel", "Vibraphone",
            "Steelpan", "Gong",
        ],
        "Bowed string instrument": ["Violin", "Cello", "Double bass", "Viola"],
        "Wind instrument": [
            "Flute", "Saxophone", "Clarinet", "Trumpet", "Trombone", "French horn", "Tuba",
            "Harmonica", "Accordion", "Bagpipes", "Didgeridoo", "Oboe",
        ],
    },
    "Music genre": {
        None: [
            "Pop music", "Rhythm and blues", "Soul music", "Reggae", "Country", "Funk",
            "Folk music", "Jazz", "Disco", "Blues", "Ska", "Independent music",
            "Traditional music", "New-age music", "Music for children",
            ("Hip hop music", ["Grime music", "Trap music"]),
            ("Rock music", ["Heavy metal", "Punk rock", "Grunge", "Progressive rock",
                            "Rock and roll", "Psychedelic rock"]),
            ("Classical music", ["Opera", "Chamber music"]),
            ("Electronic music", ["House music", "Techno", "Dubstep", "Drum and bass",
                                  "Electronica", "Ambient music", "Trance music"]),
            ("Music of Latin America", ["Salsa music", "Flamenco", "Cumbia"]),
            ("Music of Africa", ["Afrobeat", "Kwaito"]),
            ("Christian music", ["Gospel music"]),
        ],
    },
    "Music mood": {
        None: ["Happy music", "Funny music", "Sad music", "Tender music", "Exciting music",
               "Angry music", "Scary music"],
    },
    "Music role": {
        None: ["Background music", "Theme music", "Jingle", "Soundtrack music", "Lullaby",
               "Video game music", "Christmas music", "Dance music", "Wedding music"],
    },
}

_OTHER_ROOTS = {
    "Human sounds": ["Speech", "Laughter", "Applause", "Whistling", "Footsteps"],
    "Animal": ["Dog", "Bird song", "Cat", "Cricket"],
    "Vehicle": ["Car passing", "Train horn", "Aircraft"],
}

SOURCES = ("MusicCaps", "MagnaTagATune", "FMA", "AudioSet")

# Open and MCQ templates substitute {category}, binary templates {label}.
# The genre category has its own open templates so that category-specific
# matching is exercised beside the "*" fallback.
TEMPLATES = [
    {"template_id": "open-1", "format": "open", "category": "*", "text": "What is the {category} in this music?"},
    {"template_id": "open-2", "format": "open", "category": "*", "text": "Which {category} can be heard in this music?"},
    {"template_id": "open-3", "format": "open", "category": "*", "text": "What {category} does this music feature?"},
    {"template_id": "open-g1", "format": "open", "category": "music genre", "text": "Which {category} does this track belong to?"},
    {"template_id": "open-g2", "format": "open", "category": "music genre", "text": "What {category} best describes this recording?"},
    {"template_id": "binary-1", "format": "binary", "category": "*", "text": "Is {label} present in the music?"},
    {"template_id": "binary-2", "format": "binary", "category": "*", "text": "Does this music contain {label}?"},
    {"template_id": "binary-3", "format": "binary", "category": "*", "text": "Can {label} be heard in this recording?"},
    {"template_id": "mcq-1", "format": "mcq", "category": "*", "text": "Select the {category} in this music:"},
    {"template_id": "mcq-2", "format": "mcq", "category": "*", "text": "Which of the following is the {category} in this music?"},
    {"template_id": "mcq-3", "format": "mcq", "category": "*", "text": "Choose the {category} featured in this music:"},
]


@dataclass
class Ontology:
    """The benchmark's own view of the ontology it wrote."""

    nodes: list[dict]
    leaf_category: dict[str, str]  # music leaf id -> top-level category name
    name_of: dict[str, str]
    parent_level: list[str]  # music node ids that are not leaves
    other_leaves: list[str]

    @property
    def leaves(self) -> list[str]:
        return sorted(self.leaf_category)

    def id_of_name(self) -> dict[str, str]:
        return {name.casefold(): node_id for node_id, name in self.name_of.items()}


def build_ontology() -> Ontology:
    nodes: list[dict] = []
    leaf_category: dict[str, str] = {}
    name_of: dict[str, str] = {}
    parent_level: list[str] = [MUSIC_ID]
    counter = iter(range(10_000))

    def new_id() -> str:
        return f"/m/bx{next(counter):04d}"

    def add(name: str, child_ids: list[str], abstract: bool = False) -> str:
        node_id = new_id()
        node = {"id": node_id, "name": name, "child_ids": child_ids}
        if abstract:
            node["abstract"] = True
        nodes.append(node)
        name_of[node_id] = name
        return node_id

    def add_member(member, category: str) -> str:
        if isinstance(member, tuple):
            name, kids = member
            kid_ids = [add_member(kid, category) for kid in kids]
            node_id = add(name, kid_ids)
            parent_level.append(node_id)
            return node_id
        node_id = add(member, [])
        leaf_category[node_id] = category
        return node_id

    category_ids = []
    for category, groups in _MUSIC_TREE.items():
        child_ids = []
        for group, members in groups.items():
            member_ids = [add_member(m, category) for m in members]
            if group is None:
                child_ids.extend(member_ids)
            else:
                child_ids.append(add(group, member_ids, abstract=True))
        category_ids.append(add(category, child_ids))
        parent_level.append(category_ids[-1])
    nodes.append({"id": MUSIC_ID, "name": "Music", "child_ids": category_ids})
    name_of[MUSIC_ID] = "Music"
    other_leaves = []
    for root, names in _OTHER_ROOTS.items():
        ids = [add(name, []) for name in names]
        other_leaves.extend(ids)
        add(root, ids)
    return Ontology(nodes, leaf_category, name_of, parent_level, other_leaves)


def _zipf_weights(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


class LabelSampler:
    """Zipf-skewed leaf labels; leaf ranks are shuffled by the seed."""

    def __init__(self, onto: Ontology, rng: random.Random):
        self.rng = rng
        leaves = onto.leaves
        rng.shuffle(leaves)
        self.leaves = leaves
        self.weights = _zipf_weights(len(leaves))
        self.by_category: dict[str, tuple[list[str], list[float]]] = {}
        for leaf, weight in zip(leaves, self.weights):
            ids, ws = self.by_category.setdefault(onto.leaf_category[leaf], ([], []))
            ids.append(leaf)
            ws.append(weight)
        self.category_of = onto.leaf_category

    def labels(self) -> list[str]:
        """1-4 distinct leaves; the second shares the first one's category half the time."""
        rng = self.rng
        k = rng.choices((1, 2, 3, 4), (0.25, 0.35, 0.25, 0.15))[0]
        chosen = [rng.choices(self.leaves, self.weights)[0]]
        while len(chosen) < k:
            if len(chosen) == 1 and rng.random() < 0.5:
                ids, ws = self.by_category[self.category_of[chosen[0]]]
                pick = rng.choices(ids, ws)[0]
            else:
                pick = rng.choices(self.leaves, self.weights)[0]
            if pick not in chosen:
                chosen.append(pick)
        return chosen


def clip_record(audio_id: str, source: str, labels: list[str], caption=None, metadata=None) -> dict:
    clip = {"audio_id": audio_id, "source": source, "labels": labels}
    if caption is not None:
        clip["caption"] = caption
    if metadata:
        clip["metadata"] = metadata
    clip["duration_s"] = 10.0
    return clip


def rule_manifest(onto: Ontology, rng: random.Random, ids: list[str]) -> list[dict]:
    """Clips for rule generation.

    One clip in ten carries only non-music labels and one in thirty only a
    parent-level music label, so the music filter drops both; one in
    fifty adds a label id the ontology does not know.
    """
    sampler = LabelSampler(onto, rng)
    clips = []
    for n, audio_id in enumerate(ids):
        source = SOURCES[n % len(SOURCES)]
        if n % 10 == 9:
            labels = rng.sample(onto.other_leaves, rng.randint(1, 2))
        elif n % 30 == 4:
            labels = [rng.choice(onto.parent_level[1:])]
        else:
            labels = sampler.labels()
            if rng.random() < 0.3:
                labels.append(rng.choice(onto.other_leaves))
        if n % 50 == 7:
            labels.append("/m/unknown%03d" % (n % 1000))
        clips.append(clip_record(audio_id, source, labels))
    return clips


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Captions

_FUNCTION_WORDS = ("the", "a", "and", "of", "with", "is", "in", "this", "that", "to", "it",
                   "by", "as", "an", "while", "on")
_CONTENT_WORDS = (
    "song music recording features male female vocal singing melody guitar piano drums bass "
    "rhythm tempo fast slow upbeat mellow acoustic electric playing groove beat synth strings "
    "sound quality low high noisy reverb soft loud energetic emotional passionate bright dark "
    "harmony chords percussion snare kick cymbal keyboard organ pad lead backing track "
    "atmosphere ambient dance pop rock jazz folk classical instrumental live studio amateur"
).split()


def caption_pair(rng: random.Random, n_words: int, shape: str) -> tuple[str, str]:
    """A caption of MusicCaps-like length and a model-style paraphrase of it.

    About 40% of the words are function words and content words are
    Zipf-skewed (both shares are assumed, not measured); the paraphrase keeps about 60% of the
    words and swaps the rest.  Which position holds which word rank comes
    from ``shape`` alone and ``rng`` only picks the words for the ranks, so
    every seed poses METEOR the same alignment problem under other words.
    """
    layout = random.Random(f"caption-shape-{n_words}-{shape}")
    weights = _zipf_weights(len(_CONTENT_WORDS))
    ranks = range(len(_CONTENT_WORDS))

    def draw() -> tuple[bool, int]:
        if layout.random() < 0.4:
            return True, layout.randrange(len(_FUNCTION_WORDS))
        return False, layout.choices(ranks, weights)[0]

    reference = [draw() for _ in range(n_words)]
    candidate = [slot if layout.random() < 0.6 else (False, layout.choices(ranks, weights)[0]) for slot in reference]
    function_words, content_words = list(_FUNCTION_WORDS), list(_CONTENT_WORDS)
    rng.shuffle(function_words)
    rng.shuffle(content_words)

    def text(slots) -> str:
        words = [function_words[k] if is_function else content_words[k] for is_function, k in slots]
        return " ".join(words).capitalize() + "."

    return text(reference), text(candidate)
