"""Natural language to object graph and back.

A referring expression like "take the plastic cup on the table" is first
labeled token by token with a BIO tagger over a closed lexicon, then parsed
top-down into a tree: the referred class at the root, self attributes
(color, material) and spatial relations (is-on, is-near, is-at) as edges.
The inverse direction renders a graph back into an English noun phrase.
"""

from refground import (
    ObjectGraph,
    default_lexicon,
    phrase_to_graph,
    realize,
    serialize,
    tag,
    tokenize,
)

lexicon = default_lexicon()

print("=== tagging ===")
for text in [
    "take the plastic cup on the table",
    "bring a cup",
    "a white lamp near a white table",
    "get me the red book on top of the dining table",
]:
    tokens = tokenize(text)
    labels = tag(tokens, lexicon)
    print(f"{text!r}")
    for token, label in zip(tokens, labels):
        print(f"    {token:<8} {label}")

print("\n=== parsing ===")
for text in [
    "take the plastic cup on the table",
    "bring a cup",
    "please fetch an orange ceramic bowl beside the counter",
]:
    graph = phrase_to_graph(text, lexicon)
    print(f"{text!r}\n    -> {serialize(graph)}")

print("\n=== realization (graph -> English) ===")
cup = ObjectGraph(
    "cup",
    [("color", "red"), ("material", "plastic")],
    [("is-on", ObjectGraph("table", [("color", "white")]))],
)
print(serialize(cup))
print(f"    -> {realize(cup)!r}")

print("\n=== round trip ===")
text = realize(cup)
again = phrase_to_graph(text, lexicon)
print(f"{text!r} parses back to an identical graph: {again == cup}")
