"""Property-based test: the compiled content-model matcher accepts exactly
the child sequences that the textbook regular expression of the model
accepts. ``re`` backtracks, which is harmless at these lengths, so it
serves as the oracle here."""

import re

from hypothesis import given, settings, strategies as st

from repro.xmlkit.dtd import Choice, Name, Particle, Seq, _ContentAutomaton

occurs = st.sampled_from("1?*+")
names = st.builds(lambda tag, occ: Name(occurs=occ, tag=tag),
                  st.sampled_from("abc"), occurs)


def groups(children):
    return st.builds(lambda kind, items, occ: kind(occurs=occ, items=items),
                     st.sampled_from([Seq, Choice]),
                     st.lists(children, max_size=3).map(tuple), occurs)


# depth <= 3: a name, or a group of groups of groups of names
particles = st.one_of(names, groups(names), groups(groups(names)),
                      groups(groups(groups(names))))


def to_regex(p: Particle) -> str:
    suffix = "" if p.occurs == "1" else p.occurs
    if isinstance(p, Name):
        return p.tag + suffix
    if isinstance(p, Seq):
        return "(?:" + "".join(map(to_regex, p.items)) + ")" + suffix
    if not p.items:
        return "(?!)" + suffix       # an empty choice matches nothing
    return "(?:" + "|".join(map(to_regex, p.items)) + ")" + suffix


@settings(max_examples=400, deadline=None)
@given(particles, st.lists(st.lists(st.sampled_from("abcd"), max_size=8),
                           min_size=1, max_size=6))
def test_matcher_agrees_with_regex_oracle(particle, sequences):
    automaton = _ContentAutomaton(particle)
    pattern = re.compile(to_regex(particle))
    for tags in sequences:
        expected = pattern.fullmatch("".join(tags)) is not None
        assert automaton.matches(tags) == expected, (str(particle), tags)
