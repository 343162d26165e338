/* Best-first branch-and-bound over the labels of one node's observations:
 * the loop of fedkmeans.subsolver._best_first, which builds this file with
 * -O2 -ffp-contract=off, loads it with ctypes and documents what it computes.
 *
 * A search runs in calls to fk_search_run, each of which returns at the first
 * leaf whose bound is below the incumbent (its labels in `leaf`), after `chunk`
 * expanded nodes, at the node cap, or once the incumbent is proven optimal.
 * Between calls the caller may lower `ub` to the value of a new incumbent.
 *
 * Each child is valued with the operations, in the order, of subsolver.py's
 * _ADD_POINT_SOURCE, so every bound is that of the Python kernel bit for bit:
 * nothing here may be built with fast-math or contracted into fused
 * multiply-adds.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OPTIMAL = 0, LEAF = 1, CHUNK = 2, NODE_LIMIT = 3, NO_MEMORY = -1 };

typedef struct {
    double bound;
    int64_t tiebreak;
    int64_t slot;
} entry;

/* The open nodes.  A slot of the pool holds one: its value sum, depth and
   labels used as doubles, its K clusters, then its row of n labels. */
typedef struct {
    entry *heap;
    int64_t heap_len, heap_cap;
    char *pool;
    int64_t n_slots, stride;
    int64_t *free_slots;
    int64_t n_free;
    int64_t tiebreak;
    double *added;          /* the child being valued */
} open_nodes;

/* Mirrored field for field by the State of subsolver.py's _search_library,
   which zeroes it. */
typedef struct {
    /* Set by the caller. */
    const double *points;   /* n x n_y observations in branching order */
    const double *sq;       /* their squared norms */
    const double *sb;       /* n + 1 suffix bounds, read as the search goes */
    const double *lo, *hi;  /* n_y: the box */
    const double *dual;     /* K x n_y c / 2, K x n_y c, then the K empty clusters,
                               each W = n_y + 3 doubles: count, sums, sumsq, value */
    unsigned char *leaf;    /* labels of positions start..n-1 of the leaf returned */
    int64_t n, K, n_y, start, symmetric, max_nodes, chunk;
    double root_sum;        /* the root clusters' summed value */
    double ub;              /* the incumbent's value; the caller lowers it after a leaf */
    /* Set by the search. */
    double best_lb;
    int64_t explored;
    open_nodes *open;       /* private to the search */
} search;

static int before(const entry *a, const entry *b)
{
    return a->bound < b->bound || (a->bound == b->bound && a->tiebreak < b->tiebreak);
}

static void push(open_nodes *o, entry e)
{
    int64_t i = o->heap_len++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(&e, &o->heap[parent]))
            break;
        o->heap[i] = o->heap[parent];
        i = parent;
    }
    o->heap[i] = e;
}

static entry pop(open_nodes *o)
{
    entry top = o->heap[0], last = o->heap[--o->heap_len];
    int64_t i = 0, n = o->heap_len;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(&o->heap[child + 1], &o->heap[child]))
            child++;
        if (!before(&o->heap[child], &last))
            break;
        o->heap[i] = o->heap[child];
        i = child;
    }
    if (n)
        o->heap[i] = last;
    return top;
}

/* Room for `more` new slots and heap entries; 0 when out of memory. */
static int reserve(open_nodes *o, int64_t more)
{
    if (o->heap_len + more > o->heap_cap) {
        int64_t cap = 2 * (o->heap_len + more);
        entry *heap = realloc(o->heap, cap * sizeof(entry));
        if (!heap)
            return 0;
        o->heap = heap;
        o->heap_cap = cap;
    }
    if (o->n_free < more) {
        int64_t cap = 2 * (o->n_slots + more);
        char *pool = realloc(o->pool, cap * o->stride);
        int64_t *free_slots = realloc(o->free_slots, cap * sizeof(int64_t));
        if (pool)
            o->pool = pool;
        if (free_slots)
            o->free_slots = free_slots;
        if (!pool || !free_slots)
            return 0;
        for (int64_t slot = cap - 1; slot >= o->n_slots; slot--)
            o->free_slots[o->n_free++] = slot;
        o->n_slots = cap;
    }
    return 1;
}

void fk_search_free(search *s)
{
    if (s->open) {
        free(s->open->heap);
        free(s->open->pool);
        free(s->open->free_slots);
        free(s->open->added);
        free(s->open);
        s->open = NULL;
    }
}

/* Opens the root and sets best_lb to its bound. */
int fk_search_init(search *s)
{
    int64_t W = s->n_y + 3;
    open_nodes *o = s->open = calloc(1, sizeof(open_nodes));
    if (!o)
        return NO_MEMORY;
    o->stride = (int64_t)sizeof(double) * (3 + s->K * W) + (s->n + 7) / 8 * 8;
    o->added = malloc(W * sizeof(double));
    if (!o->added || !reserve(o, s->K + 1))
        return NO_MEMORY;
    int64_t slot = o->free_slots[--o->n_free];
    double *node = (double *)(o->pool + slot * o->stride);
    node[0] = s->root_sum;
    node[1] = (double)s->start;
    node[2] = 0.0;
    memcpy(node + 3, s->dual + 2 * s->K * s->n_y, s->K * W * sizeof(double));
    s->best_lb = s->root_sum + s->sb[s->start];
    push(o, (entry){s->best_lb, 0, slot});
    return OPTIMAL;
}

/* Cluster `cl` after adding observation y, into `out`, as the kernel does. */
static void add_point(const search *s, const double *cl, const double *y, double y_sq,
                      const double *half_c, const double *c, double *out)
{
    int64_t n_y = s->n_y;
    double count = cl[0] + 1.0;
    double sumsq = cl[n_y + 1] + y_sq;
    double mm = 0.0, sm = 0.0, cm = 0.0;
    for (int64_t i = 0; i < n_y; i++) {
        double sum = cl[1 + i] + y[i];
        double m = (sum - half_c[i]) / count;
        if (m < s->lo[i])
            m = s->lo[i];
        else if (m > s->hi[i])
            m = s->hi[i];
        out[1 + i] = sum;
        mm += m * m;
        sm += sum * m;
        cm += c[i] * m;
    }
    out[0] = count;
    out[n_y + 1] = sumsq;
    out[n_y + 2] = sumsq + (count * mm - 2.0 * sm + cm);
}

int fk_search_run(search *s)
{
    open_nodes *o = s->open;
    int64_t n = s->n, K = s->K, n_y = s->n_y, W = n_y + 3;
    int64_t stop = s->explored + s->chunk;
    double *added = o->added;
    while (o->heap_len) {
        if (s->explored >= stop)
            return CHUNK;
        if (o->heap[0].bound >= s->ub)
            break;
        entry top = pop(o);
        if (top.bound > s->best_lb)
            s->best_lb = top.bound;
        double *node = (double *)(o->pool + top.slot * o->stride);
        int64_t depth = (int64_t)node[1];
        if (depth == n) {  /* a leaf below the incumbent */
            memcpy(s->leaf, (char *)(node + 3 + K * W) + s->start, n - s->start);
            o->free_slots[o->n_free++] = top.slot;
            return LEAF;
        }
        if (++s->explored >= s->max_nodes)
            return NODE_LIMIT;
        if (!reserve(o, K))
            return NO_MEMORY;
        node = (double *)(o->pool + top.slot * o->stride);
        double pc_sum = node[0];
        int64_t used = (int64_t)node[2];
        const double *y = s->points + depth * n_y;
        double y_sq = s->sq[depth], below = s->sb[depth + 1];
        int64_t n_children = s->symmetric && used + 1 < K ? used + 1 : K;
        for (int64_t k = 0; k < n_children; k++) {
            const double *cl = node + 3 + k * W;
            add_point(s, cl, y, y_sq, s->dual + k * n_y, s->dual + (K + k) * n_y, added);
            double child_sum = pc_sum - cl[n_y + 2] + added[n_y + 2];
            double child_bound = child_sum + below;
            if (child_bound < s->ub) {
                int64_t slot = o->free_slots[--o->n_free];
                double *child = (double *)(o->pool + slot * o->stride);
                memcpy(child, node, o->stride);
                child[0] = child_sum;
                child[1] = (double)(depth + 1);
                child[2] = (double)(used > k ? used : k + 1);
                memcpy(child + 3 + k * W, added, W * sizeof(double));
                ((unsigned char *)(child + 3 + K * W))[depth] = (unsigned char)k;
                push(o, (entry){child_bound, ++o->tiebreak, slot});
            }
        }
        o->free_slots[o->n_free++] = top.slot;
    }
    return OPTIMAL;
}
