"""minidb query planner and executor.

SELECT execution pipeline:

1. **Conjunct pool** — the WHERE clause and every JOIN ... ON condition
   are split into top-level AND conjuncts.
2. **Left-deep join loop** — tables join in FROM order. Each new table
   is brought in by a **hash join** when an equi-join conjunct connects
   it to the tables already joined, otherwise by nested loop. Residual
   conjuncts apply as soon as all their columns are in scope
   (predicate pushdown). ``LEFT JOIN`` tables come last, in text order:
   their ON conjuncts only decide what matches (an unmatched outer row
   survives NULL-padded) and WHERE conjuncts over them apply after.
3. **Access paths** — a table's single-table equality conjunct probes a
   matching index (hash or ordered); range conjuncts
   (``<,<=,>,>=``) use an ordered index's bisect scan; otherwise a
   sequential scan. Parameters are bound before planning, so ``?``
   values participate in access-path selection.
4. **Aggregation / projection / DISTINCT / ORDER BY / LIMIT** finish
   the pipeline.

Every plan decision is recorded as a line in :attr:`Plan.steps`, the
minidb analogue of ``EXPLAIN QUERY PLAN`` — the paper's index tuning
was driven by reading Oracle's plans; experiment E6 reads these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ExecutionError, SchemaError
from repro.relational.minidb.expr import (
    Aggregate,
    ColumnEnv,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Param,
)
from repro.relational.minidb.index import OrderedIndex
from repro.relational.minidb.sql import Select, SelectItem, TableRef
from repro.relational.minidb.table import Catalog, Table


@dataclass
class Plan:
    """Human-readable record of the executor's choices."""

    steps: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        """Record one plan decision."""
        self.steps.append(message)


@dataclass
class _Scope:
    """Aliases joined so far and their row-tuple layout."""

    env: ColumnEnv = field(default_factory=ColumnEnv)
    aliases: set[str] = field(default_factory=set)
    width: int = 0

    def add_table(self, alias: str, table: Table) -> None:
        for offset, column in enumerate(table.columns):
            self.env.add(alias, column.name, self.width + offset)
        self.aliases.add(alias)
        self.width += len(table.columns)


def execute_select(catalog: Catalog, select: Select,
                   params: Sequence) -> tuple[list[tuple], Plan]:
    """Run a SELECT; returns (rows, plan)."""
    plan = Plan()
    refs = select.table_refs()
    if not refs:
        raise SchemaError("SELECT without FROM is not supported")
    seen_aliases: set[str] = set()
    for ref in refs:
        if ref.alias in seen_aliases:
            raise SchemaError(f"duplicate table alias {ref.alias}")
        seen_aliases.add(ref.alias)

    conjuncts: list[Expr] = []
    if select.where is not None:
        conjuncts.extend(_split_and(select.where))
    outer_joins: list[tuple[TableRef, list[Expr]]] = []
    for join in select.joins:
        if join.outer:
            outer_joins.append((join.ref, _split_and(join.on)))
        else:
            conjuncts.extend(_split_and(join.on))

    needed = _needed_columns(
        select, conjuncts + [c for __, on in outer_joins for c in on])
    rows, scope = _run_joins(catalog, refs[:len(refs) - len(outer_joins)],
                             conjuncts, params, plan, outer_joins,
                             distinct=select.distinct, needed=needed)

    if select.group_by or _has_aggregates(select.items):
        result = _aggregate(select, rows, scope.env, params, plan)
    else:
        result = _project(select.items, rows, scope.env, params)

    if select.distinct:
        result = _distinct(result)
        plan.note("distinct")
    if select.order_by:
        result = _order(select, result, rows, scope.env, params)
        plan.note("sort")
    if select.limit is not None:
        result = result[:select.limit]
    return result, plan


# --------------------------------------------------------------------------
# Join pipeline
# --------------------------------------------------------------------------


def _needed_columns(select: Select,
                    conjuncts: list[Expr]) -> set[tuple[str | None, str]] | None:
    """(alias, column) pairs the query reads anywhere, or None when a
    star projection makes everything live."""
    needed: set[tuple[str | None, str]] = set()
    exprs: list[Expr] = []
    for item in select.items:
        if item.star:
            return None
        exprs.append(item.expr)
    exprs.extend(select.group_by)
    exprs.extend(order.expr for order in select.order_by)
    exprs.extend(conjuncts)
    for expr in exprs:
        for ref in expr.column_refs():
            needed.add((ref.alias, ref.column))
    return needed


def _run_joins(catalog: Catalog, refs: list[TableRef],
               conjuncts: list[Expr], params: Sequence,
               plan: Plan,
               outer_joins: Sequence[tuple[TableRef, list[Expr]]] = (),
               distinct: bool = False,
               needed: set[tuple[str | None, str]] | None = None
               ) -> tuple[list[tuple], _Scope]:
    remaining = list(conjuncts)
    scope = _Scope()
    rows: list[tuple] = []
    single_table = len(refs) == 1 and not outer_joins
    if single_table:
        # bare column names can only mean the one table: qualify them so
        # pushdown and access-path selection see them
        alias = refs[0].alias
        for conjunct in remaining:
            for column_ref in conjunct.column_refs():
                if column_ref.alias is None:
                    column_ref.alias = alias

    refs = _order_refs(catalog, refs, remaining, plan)
    # projection pushdown for DISTINCT queries: columns never read by
    # the projection, ordering or any predicate are dead weight that
    # keeps duplicate intermediate rows distinct (e.g. keyword-index
    # positions). Null them out and dedupe as soon as their table
    # joins, instead of only at the final DISTINCT.
    live_mask: list[bool] = []

    def extend_mask(ref: TableRef, table: Table) -> None:
        for column in table.columns:
            live_mask.append(
                needed is None or not distinct
                or (ref.alias, column.name) in needed
                or (None, column.name) in needed)

    def compact(current: list[tuple]) -> list[tuple]:
        if not distinct or needed is None or all(live_mask):
            return current
        mask = tuple(live_mask)
        deduped = dict.fromkeys(
            tuple(v if live else None for v, live in zip(row, mask))
            for row in current)
        if len(deduped) < len(current):
            plan.note(f"distinct pushdown: {len(current)} -> "
                      f"{len(deduped)} rows")
        return list(deduped)

    def settle(current: list[tuple], ref: TableRef) -> list[tuple]:
        """Apply the conjuncts ``ref`` just made fully bound."""
        for conjunct in _take_bound(remaining, scope.aliases):
            predicate = conjunct.compile(scope.env)
            current = [row for row in current if predicate(row, params)]
            plan.note(f"filter after {ref.alias}: {len(current)} rows")
        return compact(current)

    for position, ref in enumerate(refs):
        table = catalog.table(ref.table)
        table_conjuncts = _take_single_table(remaining, ref.alias)
        if position == 0:
            scope.add_table(ref.alias, table)
            extend_mask(ref, table)
            rows = _scan_table(table, ref, table_conjuncts, scope, params,
                               plan)
        else:
            equi = _take_equi_joins(remaining, scope.aliases, ref.alias)
            new_scope_offset = scope.width
            scope.add_table(ref.alias, table)
            extend_mask(ref, table)
            new_rows = _scan_table(
                table, ref, table_conjuncts,
                _solo_scope(ref.alias, table), params, plan)
            if equi:
                rows = _hash_join(rows, new_rows, equi, scope, ref,
                                  new_scope_offset, plan, params)
            else:
                plan.note(f"nested loop join {ref.table} as {ref.alias} "
                          f"({len(new_rows)} rows)")
                rows = [outer + inner for outer in rows for inner in new_rows]
        rows = settle(rows, ref)
    for ref, on in outer_joins:
        table = catalog.table(ref.table)
        table_conjuncts = _take_single_table(on, ref.alias)
        equi = _take_equi_joins(on, scope.aliases, ref.alias)
        new_scope_offset = scope.width
        scope.add_table(ref.alias, table)
        extend_mask(ref, table)
        new_rows = _scan_table(table, ref, table_conjuncts,
                               _solo_scope(ref.alias, table), params, plan)
        rows = _hash_join(rows, new_rows, equi, scope, ref,
                          new_scope_offset, plan, params, left_on=on)
        rows = settle(rows, ref)
    # leftovers: conjuncts with unqualified refs in a multi-table query
    # (resolvable only if the bare name is unambiguous in the full scope)
    for conjunct in remaining:
        predicate = conjunct.compile(scope.env)  # raises if unresolvable
        rows = [row for row in rows if predicate(row, params)]
        plan.note(f"final filter: {len(rows)} rows")
    return rows, scope


def _order_refs(catalog: Catalog, refs: list[TableRef],
                conjuncts: list[Expr], plan: Plan) -> list[TableRef]:
    """Greedy join ordering.

    FROM order is what the SQL says, not what is fast: joining two
    unconnected chains in text order materializes their cross product
    before the connecting predicate ever applies. Instead: start from
    the table with the most selective single-table conjuncts, then
    repeatedly add a table connected to the joined set by an equi-join
    conjunct (hash-joinable), then by any conjunct (filterable), and
    only as a last resort an unconnected one.
    """
    if len(refs) <= 2:
        return refs

    def single_conjuncts(alias: str) -> list[Expr]:
        return [c for c in conjuncts
                if _aliases_of(c) == {alias} and not _unqualified_refs(c)]

    def has_const_equality(alias: str) -> bool:
        return any(
            isinstance(c, Comparison) and c.op == "="
            and any(isinstance(side, (Literal, Param))
                    for side in (c.left, c.right))
            for c in single_conjuncts(alias))

    def size(ref: TableRef) -> int:
        return catalog.table(ref.table).live_count

    pending = list(refs)
    first = max(pending, key=lambda r: (
        has_const_equality(r.alias), len(single_conjuncts(r.alias)),
        -size(r)))
    ordered = [first]
    pending.remove(first)
    joined = {first.alias}

    while pending:
        def connects_equi(ref: TableRef) -> bool:
            return any(
                _match_equi(c, joined, ref.alias) is not None
                for c in conjuncts)

        def connects_any(ref: TableRef) -> bool:
            return any(
                ref.alias in _aliases_of(c)
                and _aliases_of(c) <= joined | {ref.alias}
                and len(_aliases_of(c)) > 1
                for c in conjuncts)

        candidates = [r for r in pending if connects_equi(r)]
        if not candidates:
            candidates = [r for r in pending if connects_any(r)]
        if not candidates:
            candidates = pending
        best = max(candidates, key=lambda r: (
            has_const_equality(r.alias), len(single_conjuncts(r.alias)),
            -size(r)))
        ordered.append(best)
        pending.remove(best)
        joined.add(best.alias)

    if [r.alias for r in ordered] != [r.alias for r in refs]:
        plan.note("join order: " + " -> ".join(r.alias for r in ordered))
    return ordered


def _solo_scope(alias: str, table: Table) -> _Scope:
    scope = _Scope()
    scope.add_table(alias, table)
    return scope


def _scan_table(table: Table, ref: TableRef, conjuncts: list[Expr],
                scope: _Scope, params: Sequence, plan: Plan) -> list[tuple]:
    """Rows of one table with its single-table conjuncts applied,
    via the best available access path."""
    access_rows, used, note = _choose_access_path(table, ref.alias,
                                                  conjuncts, scope.env,
                                                  params)
    plan.note(f"{note} on {table.name} as {ref.alias}")
    residual = [c for c in conjuncts if c is not used]
    if not residual:
        return access_rows
    predicates = [c.compile(scope.env) for c in residual]
    return [row for row in access_rows
            if all(p(row, params) for p in predicates)]


def _choose_access_path(table: Table, alias: str, conjuncts: list[Expr],
                        env: ColumnEnv, params: Sequence
                        ) -> tuple[list[tuple], Expr | None, str]:
    """Pick index lookup / range scan / seq scan. Returns (rows,
    conjunct satisfied by the access path, plan note)."""
    # composite equality: all columns of a multi-column index bound
    equalities: dict[str, tuple] = {}
    for conjunct in conjuncts:
        bound = _constant_equality(conjunct, alias, params)
        if bound is not None:
            equalities.setdefault(bound[0], (bound[1], conjunct))
    if len(equalities) > 1:
        offsets_bound = {table.column_offset(c): c for c in equalities}
        for index in table.indexes.values():
            if (len(index.offsets) > 1
                    and all(o in offsets_bound for o in index.offsets)):
                key = tuple(equalities[offsets_bound[o]][0]
                            for o in index.offsets)
                rows = [table.rows[row_id] for row_id in index.lookup(key)]
                rows = [row for row in rows if row is not None]
                # all participating conjuncts are satisfied; report one
                # and let the rest re-check harmlessly as residuals
                satisfied = equalities[offsets_bound[index.offsets[0]]][1]
                return rows, satisfied, f"index lookup ({index.name})"
    # equality: col = constant
    for conjunct in conjuncts:
        bound = _constant_equality(conjunct, alias, params)
        if bound is None:
            continue
        column, value = bound
        index = _find_index(table, column)
        if index is not None:
            rows = [table.rows[row_id] for row_id in index.lookup((value,))]
            rows = [row for row in rows if row is not None]
            return rows, conjunct, f"index lookup ({index.name})"
    # range: col (<|<=|>|>=) constant on an ordered index
    for conjunct in conjuncts:
        bound_range = _constant_range(conjunct, alias, params)
        if bound_range is None:
            continue
        column, low, high, low_inc, high_inc = bound_range
        index = _find_index(table, column)
        if isinstance(index, OrderedIndex):
            row_ids = index.range_scan(low, high, low_inc, high_inc)
            rows = [table.rows[row_id] for row_id in row_ids]
            rows = [row for row in rows if row is not None]
            return rows, conjunct, f"index range scan ({index.name})"
    rows = [row for __, row in table.scan()]
    return rows, None, "seq scan"


def _find_index(table: Table, column: str):
    """An index probeable by a single value of ``column``: an ordered
    index keyed on it, or a single-column hash index. Multi-column hash
    indexes cannot answer a prefix probe and are skipped."""
    offset = table.column_offset(column)
    best = None
    for index in table.indexes.values():
        if isinstance(index, OrderedIndex):
            if index.offsets[0] == offset:
                return index
        elif index.offsets == [offset]:
            best = best or index
    return best


def _constant_equality(conjunct: Expr, alias: str, params: Sequence):
    """Match ``alias.col = <constant>`` (either side); returns
    (column, value) or None."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    for left, right in ((conjunct.left, conjunct.right),
                        (conjunct.right, conjunct.left)):
        if (isinstance(left, ColumnRef)
                and (left.alias == alias or left.alias is None)):
            value = _constant_value(right, params)
            if value is not NotImplemented:
                return left.column, value
    return None


_RANGE_OPS = {"<", "<=", ">", ">="}


def _constant_range(conjunct: Expr, alias: str, params: Sequence):
    """Match ``alias.col (<|<=|>|>=) <constant>`` (either orientation);
    returns (column, low, high, low_inclusive, high_inclusive)."""
    if not isinstance(conjunct, Comparison) or conjunct.op not in _RANGE_OPS:
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
        # constant OP col  ->  col flipped-OP constant
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
    if not (isinstance(left, ColumnRef)
            and (left.alias == alias or left.alias is None)):
        return None
    value = _constant_value(right, params)
    if value is NotImplemented or value is None:
        return None
    if op == "<":
        return left.column, None, value, True, False
    if op == "<=":
        return left.column, None, value, True, True
    if op == ">":
        return left.column, value, None, False, True
    return left.column, value, None, True, True


def _constant_value(expr: Expr, params: Sequence):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Param):
        return params[expr.index]
    return NotImplemented


def _hash_join(outer_rows: list[tuple], inner_rows: list[tuple],
               equi: list[tuple[Expr, Expr]], scope: _Scope, ref: TableRef,
               inner_offset: int, plan: Plan, params: Sequence,
               left_on: list[Expr] | None = None) -> list[tuple]:
    """Hash join: build on the (new) inner table, probe with outer rows.

    ``equi`` pairs are (outer_side_expr, inner_side_expr); inner exprs
    reference only the new table, so they compile against a shifted
    solo layout. ``left_on`` (not None) makes it a LEFT JOIN: a pair
    must also pass those residual ON conjuncts to match, and an outer
    row nothing matches is kept, NULL-padded. Without ``equi`` pairs
    every inner row lands in one bucket — a nested loop.
    """
    inner_env = ColumnEnv()
    # rebuild inner layout at offset zero for key extraction
    width = scope.width - inner_offset
    for (alias, column), offset in scope.env._qualified.items():
        if alias == ref.alias:
            inner_env.add(alias, column, offset - inner_offset)
    outer_keys = [pair[0].compile(scope.env) for pair in equi]
    inner_keys = [pair[1].compile(inner_env) for pair in equi]

    build: dict[tuple, list[tuple]] = {}
    for row in inner_rows:
        key = tuple(fn(row, params) for fn in inner_keys)
        if any(part is None for part in key):
            continue
        build.setdefault(key, []).append(row)
    plan.note(f"{'hash' if left_on is None else 'left hash'} join "
              f"{ref.table} as {ref.alias} "
              f"(build {len(inner_rows)} rows, {len(equi)} key parts)")

    residual = [conjunct.compile(scope.env) for conjunct in left_on or ()]
    joined: list[tuple] = []
    pad = (None,) * width
    for outer in outer_rows:
        padded = outer + pad
        key = tuple(fn(padded, params) for fn in outer_keys)
        matches = [] if None in key else [
            outer + inner for inner in build.get(key, ())]
        if residual:
            matches = [row for row in matches
                       if all(fn(row, params) for fn in residual)]
        if left_on is not None and not matches:
            matches = [padded]
        joined += matches
    return joined


def _split_and(expr: Expr) -> list[Expr]:
    from repro.relational.minidb.expr import And
    if isinstance(expr, And):
        result: list[Expr] = []
        for item in expr.items:
            result.extend(_split_and(item))
        return result
    return [expr]


def _aliases_of(expr: Expr) -> set[str]:
    return {ref.alias for ref in expr.column_refs() if ref.alias is not None}


def _unqualified_refs(expr: Expr) -> bool:
    return any(ref.alias is None for ref in expr.column_refs())


def _take_single_table(pool: list[Expr], alias: str) -> list[Expr]:
    """Pop conjuncts that reference only ``alias`` (qualified)."""
    taken: list[Expr] = []
    kept: list[Expr] = []
    for conjunct in pool:
        aliases = _aliases_of(conjunct)
        if aliases == {alias} and not _unqualified_refs(conjunct):
            taken.append(conjunct)
        else:
            kept.append(conjunct)
    pool[:] = kept
    return taken


def _take_equi_joins(pool: list[Expr], joined: set[str],
                     new_alias: str) -> list[tuple[Expr, Expr]]:
    """Pop ``outer.col = new.col`` conjuncts; returns (outer_expr,
    inner_expr) pairs oriented outer-first."""
    pairs: list[tuple[Expr, Expr]] = []
    kept: list[Expr] = []
    for conjunct in pool:
        pair = _match_equi(conjunct, joined, new_alias)
        if pair is not None:
            pairs.append(pair)
        else:
            kept.append(conjunct)
    pool[:] = kept
    return pairs


def _match_equi(conjunct: Expr, joined: set[str],
                new_alias: str) -> tuple[Expr, Expr] | None:
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    left_aliases = _aliases_of(conjunct.left)
    right_aliases = _aliases_of(conjunct.right)
    if (_unqualified_refs(conjunct.left)
            or _unqualified_refs(conjunct.right)):
        return None
    if not left_aliases or not right_aliases:
        return None
    if left_aliases <= joined and right_aliases == {new_alias}:
        return conjunct.left, conjunct.right
    if right_aliases <= joined and left_aliases == {new_alias}:
        return conjunct.right, conjunct.left
    return None


def _take_bound(pool: list[Expr], aliases: set[str]) -> list[Expr]:
    """Pop conjuncts whose qualified refs are all in scope (and that
    have no unqualified refs, which we cannot place reliably until the
    end — they are taken once all tables are in)."""
    taken: list[Expr] = []
    kept: list[Expr] = []
    for conjunct in pool:
        if _aliases_of(conjunct) <= aliases and not _unqualified_refs(conjunct):
            taken.append(conjunct)
        else:
            kept.append(conjunct)
    pool[:] = kept
    return taken


# --------------------------------------------------------------------------
# Projection, aggregation, ordering
# --------------------------------------------------------------------------


def _expand_star(items: list[SelectItem], env: ColumnEnv) -> list:
    """Compiled projection functions for the select list."""
    compiled = []
    for item in items:
        if item.star:
            offsets = sorted(env._qualified.values())
            for offset in offsets:
                compiled.append(
                    (lambda row, params, o=offset: row[o]))
        else:
            compiled.append(item.expr.compile(env))
    return compiled


def _project(items: list[SelectItem], rows: list[tuple],
             env: ColumnEnv, params: Sequence) -> list[tuple]:
    compiled = _expand_star(items, env)
    return [tuple(fn(row, params) for fn in compiled) for row in rows]


def _has_aggregates(items: list[SelectItem]) -> bool:
    return any(isinstance(item.expr, Aggregate) for item in items)


def _aggregate(select: Select, rows: list[tuple], env: ColumnEnv,
               params: Sequence, plan: Plan) -> list[tuple]:
    plan.note("aggregate")
    group_fns = [expr.compile(env) for expr in select.group_by]
    groups: dict[tuple, list[tuple]] = {}
    if group_fns:
        for row in rows:
            key = tuple(fn(row, params) for fn in group_fns)
            groups.setdefault(key, []).append(row)
    else:
        groups[()] = rows

    output: list[tuple] = []
    for key in groups:
        group_rows = groups[key]
        record: list[Any] = []
        for item in select.items:
            if isinstance(item.expr, Aggregate):
                record.append(_run_aggregate(item.expr, group_rows, env,
                                             params))
            else:
                fn = item.expr.compile(env)
                record.append(fn(group_rows[0], params)
                              if group_rows else None)
        output.append(tuple(record))
    return output


def _run_aggregate(agg: Aggregate, rows: list[tuple], env: ColumnEnv,
                   params: Sequence):
    if agg.arg is None:
        return len(rows)
    fn = agg.arg.compile(env)
    values = [fn(row, params) for row in rows]
    values = [v for v in values if v is not None]
    if agg.distinct:
        values = list(dict.fromkeys(values))
    if agg.name == "count":
        return len(values)
    if not values:
        return None
    if agg.name == "min":
        return min(values)
    if agg.name == "max":
        return max(values)
    if agg.name == "sum":
        return sum(values)
    if agg.name == "avg":
        return sum(values) / len(values)
    raise ExecutionError(f"unknown aggregate {agg.name}")


def _distinct(rows: list[tuple]) -> list[tuple]:
    return list(dict.fromkeys(rows))


def _order(select: Select, result: list[tuple], rows: list[tuple],
           env: ColumnEnv, params: Sequence) -> list[tuple]:
    """ORDER BY over the projected result.

    Order expressions are evaluated against the pre-projection rows when
    possible; since projection may drop columns, we pair result records
    with their source rows (only valid for non-aggregate selects, where
    the two lists are parallel). Aggregate selects order by position in
    the select list instead.
    """
    order_items = select.order_by
    if (select.group_by or _has_aggregates(select.items)
            or len(result) != len(rows)):
        # order by matching select-list expressions positionally
        positions = []
        for order_item in order_items:
            for index, item in enumerate(select.items):
                if _expr_text(item.expr) == _expr_text(order_item.expr):
                    positions.append((index, order_item.ascending))
                    break
            else:
                raise SchemaError(
                    "ORDER BY expression must appear in the select list "
                    "of an aggregate query")
        ranked = result
        for index, ascending in reversed(positions):
            ranked = sorted(ranked, key=lambda r: _sort_key(r[index]),
                            reverse=not ascending)
        return ranked
    fns = [(item.expr.compile(env), item.ascending) for item in order_items]
    paired = list(zip(result, rows))
    for fn, ascending in reversed(fns):
        paired.sort(key=lambda pair: _sort_key(fn(pair[1], params)),
                    reverse=not ascending)
    return [record for record, __ in paired]


def _sort_key(value) -> tuple:
    if value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


def _expr_text(expr: Expr) -> str:
    return repr(expr)
