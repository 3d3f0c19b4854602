"""The one exhaustive search behind every assignment and subset search.

A node assigns each pool item to one member or to nobody.  The root
assigns every item to nobody, and each child takes one item later than
the node's last taken item into one member's set (items in pool order,
then members in order).  So every assignment whose member sets are all
feasible is one node, reached by the walk because feasibility systems
are downward closed.  The two visit orders give the documented
tie-breaks without any sorting:

* pre-order lists one member's sets in lexicographic order of their
  sorted item tuples (the empty set first), and
* post-order lists assignments in lexicographic order of the assignment
  vector, members in index order before nobody.

Weights are integers, scaled once by the lcm of their denominators
(`integral`); an instance keeps its own as `Instance.integer_weights`.
A member's set is an int mask: the caller gives each pool item its bit
(`bits`), its own position in the pool or its position in a wider id
list, and a child ors the item's bit into its member's mask, so a
caller's prune and tests work on ints.  A system gives its test on masks
over an id list by its one hook, `FeasibilitySystem._mask_test`:
explicit families and their covers decide a mask against their maximal
sets as masks, and job tables read their jobs' positions from its bits.
Only a user-defined system, a narrowed built-in one and a split over
two or more members spell a mask into the frozenset `is_member` decides;
otherwise frozensets are built only where a result leaves the search
(`spell`).
A walk with several members meets a member's set once per assignment of
the others, so it memoises each member's verdicts by mask; a one-member
walk meets each set once.  The walk keeps an explicit stack of flat
frames, each a node's sets and value with the item and member it tries
next, so pool size is not limited by Python's recursion depth.  Branch
and bound is Land and Doig's (1960): the children of a node are skipped
once its value plus the weight of the items after its last taken item
falls below the caller's floor.  A caller's `prune` hook is asked once
per node and item, before the node tries that item, and once after its
last item; True drops the node's remaining subtree, the node included.
So a search for a least-value node bounds from below, and the last ask
filters the nodes the walk yields.  A child's first ask comes as soon as
the child is made, after its pre-order yield, and only a child it keeps
becomes a frame; a frame that moves on to its next item asks again when
it is next on top of the stack.  So the asks fall among the spends,
tests and yields where they would if every frame asked on entry, and
a dropped child costs no frame.  Members with one and the same test
can be walked as interchangeable: a member opens its set only after the
member before it has, so of the assignments that relabel members into
each other only the first in post-order is met.  Items can be walked
once per orbit the same way (`previous`): when swapping two items maps
every member's family onto itself, an item may join a member only if
the class-mate before it is held by that member or an earlier one,
nobody counting as the last.  Of the assignments that permute the items
of a class only the lexicographic leader is then met: the first in
post-order, and the first of one member's sets in pre-order.  This is
the lex-leader rule of Crawford, Ginsberg, Luks and Roy (1996).  Both
restrictions may hold at once, and neither spends a node on an attempt
it skips.  Splitting a set across a player's machines is a walk too:
one member per machine, and a prune that drops every node that left an
item out.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .budget import SearchBudget

Sets = tuple[int, ...]
Test = Callable[[int, SearchBudget], bool]


def integral(values: Sequence) -> tuple[list[int], int]:
    """`values` scaled to integers by the lcm of their denominators, and that lcm."""
    scale = lcm(*{value.denominator for value in values})
    return [value.numerator * (scale // value.denominator) for value in values], scale


def spell(mask: int, ids: Sequence[str]) -> frozenset[str]:
    """The items of `mask`, bit j standing for `ids[j]`."""
    items = []
    while mask:
        low = mask & -mask
        items.append(ids[low.bit_length() - 1])
        mask ^= low
    return frozenset(items)


def walk(bits: Sequence[int], weights: Sequence[int], tests: Sequence[Test],
         budget: SearchBudget, post: bool = False,
         floor: Optional[list[int]] = None,
         prune: Optional[Callable[[Sets, int, int], bool]] = None,
         interchangeable: bool = False,
         previous: Optional[Sequence[int]] = None
         ) -> Iterator[tuple[Sets, int]]:
    """Yield (member masks, value) for every node, in pre- or post-order.

    `bits[item]` is the pool item's bit, and `tests[m]` decides member
    m's masks; `tests` holds at least one member.  Every attempt to put
    an item into a member's set spends one budget node.  With `floor`, a
    one-element list the caller may raise between nodes, the walk skips
    the children of a node that cannot reach `floor[0]`, read before
    each attempt.  With `prune`, a node about to try `item`, or done
    with its last at `item == len(bits)`, is dropped when
    `prune(sets, value, item)` is True: the rest of its subtree and, in
    post-order, the node itself.  A child is asked about its first item
    right after it is made (and yielded, in pre-order), and is walked
    only if kept; every node is asked exactly once per item it reaches.
    With `interchangeable`, a member with an empty set takes an item
    only if the member before it holds one, so of the assignments that
    relabel members into each other only the first in post-order is
    walked.  With `previous`, `previous[item]` is the index of the
    item's class-mate before it, or -1: the item may join member m only
    if that class-mate is held by a member <= m, so a class-mate held by
    nobody keeps the item out of every set.  A skipped attempt spends no
    node.
    """
    size, width = len(bits), len(tests)
    if floor is not None:
        suffix = list(accumulate(reversed(weights), initial=0))[::-1]
    verdicts = [{} for _ in tests] if width > 1 else None
    root: Sets = (0,) * width
    if not post:
        yield root, 0
    if prune and prune(root, 0, 0):
        return
    # A frame moved on to a new item has member `start`: below 0 while its
    # prune for that item is still to be asked.  A child's frame is pushed
    # with its first item's prune asked.
    start = -1 if prune else 0
    stack = [[root, 0, 0, 0]]  # sets, value, next item, next member
    while stack:
        frame = stack[-1]
        sets, value, item, member = frame
        if member < 0:
            if prune(sets, value, item):
                stack.pop()
                continue
            member = 0
        if item == size or floor and value + suffix[item] < floor[0]:
            stack.pop()
            if post:
                yield sets, value
            continue
        if previous and not member and previous[item] >= 0:
            # Start at the class-mate's member; at the next item when
            # nobody holds it.
            mate = bits[previous[item]]
            while member < width and not mate & sets[member]:
                member += 1
            if member == width:
                frame[2], frame[3] = item + 1, start
                continue
        if interchangeable and member and not sets[member - 1]:
            # The member before is empty, so this one and every later one
            # are too: move on to the next item.
            frame[2], frame[3] = item + 1, start
            continue
        if member + 1 < width:
            frame[3] = member + 1
        else:
            frame[2], frame[3] = item + 1, start
        budget.spend()
        grown = sets[member] | bits[item]
        if verdicts:
            known = verdicts[member].get(grown)
            if known is None:
                known = verdicts[member][grown] = tests[member](grown, budget)
        else:
            known = tests[member](grown, budget)
        if known:
            child = sets[:member] + (grown,) + sets[member + 1:]
            gained = value + weights[item]
            if not post:
                yield child, gained
            if not (prune and prune(child, gained, item + 1)):
                stack.append([child, gained, item + 1, 0])


def best(bits: Sequence[int], weights: Sequence[int], tests: Sequence[Test],
         budget: SearchBudget, post: bool = False,
         key: Optional[Callable[[Sets], tuple]] = None,
         previous: Optional[Sequence[int]] = None) -> tuple[Sets, int]:
    """The first node of maximum value in the walk's order.

    With `key`, the maximum-value node of smallest key instead: ties are
    then explored, and their keys compared, rather than pruned.  The walk
    takes `previous` as it is: the first maximum, and the one of smallest
    key, is the leader of its orbit.
    """
    floor = [0]
    found: Optional[tuple[Sets, int]] = None
    # The incumbent's key, computed at its first tie.
    kept: Optional[tuple] = None
    for sets, value in walk(bits, weights, tests, budget, post, floor,
                            previous=previous):
        if found is None or value > found[1]:
            found, kept = (sets, value), None
            floor[0] = value if key else value + 1
        elif key and value == found[1]:
            if kept is None:
                kept = key(found[0])
            tied = key(sets)
            if tied < kept:
                found, kept = (sets, value), tied
    return found
