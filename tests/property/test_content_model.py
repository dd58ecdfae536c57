"""Property-based test: the compiled content-model matcher accepts exactly
the child sequences that the textbook regular expression of the model
accepts. The oracle evaluates that expression directly over sets of end
positions. ``re`` is no oracle here: nested stars over nullable groups,
such as ``((a?)*)*``, make its backtracking exponential, and some
generated models ran for minutes on eight-tag sequences."""

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


def regex_accepts(particle: Particle, tags: list[str]) -> bool:
    """Whether the regular expression of ``particle`` matches the whole
    of ``tags``. ``ends(p, i)`` is the set of positions where a match
    of ``p`` starting at ``i`` can end, memoized per (particle, start),
    so nesting costs nothing extra."""
    memo: dict[tuple[int, int], frozenset[int]] = {}

    def once(p: Particle, i: int) -> set[int]:
        if isinstance(p, Name):
            return {i + 1} if i < len(tags) and tags[i] == p.tag else set()
        if isinstance(p, Seq):
            reached = {i}
            for item in p.items:
                reached = {end for j in reached for end in ends(item, j)}
            return reached
        # an empty choice matches nothing
        return {end for item in p.items for end in ends(item, i)}

    def ends(p: Particle, i: int) -> frozenset[int]:
        key = (id(p), i)
        if key not in memo:
            if p.occurs == "1":
                reached = once(p, i)
            elif p.occurs == "?":
                reached = {i} | once(p, i)
            else:
                reached = {i} if p.occurs == "*" else once(p, i)
                frontier = set(reached)
                while frontier:
                    frontier = {end for j in frontier
                                for end in once(p, j)} - reached
                    reached |= frontier
            memo[key] = frozenset(reached)
        return memo[key]

    return len(tags) in ends(particle, 0)


@settings(max_examples=400, deadline=None)
@given(particles, st.lists(st.lists(st.sampled_from("abcd"), max_size=8),
                           min_size=1, max_size=6))
def test_matcher_agrees_with_regex_oracle(particle, sequences):
    automaton = _ContentAutomaton(particle)
    for tags in sequences:
        expected = regex_accepts(particle, tags)
        assert automaton.matches(tags) == expected, (str(particle), tags)
