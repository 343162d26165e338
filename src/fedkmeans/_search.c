/* Exact solves of one node's Lagrangian clustering subproblem, for
 * fedkmeans.subsolver, which builds this file with -O2 -ffp-contract=off,
 * loads it with ctypes and documents what it computes.
 *
 * fk_solve is a whole solve: the search's coefficients and root from the
 * dual term, the start relabelled to its least value, the best-first
 * branch-and-bound, and the reply of the incumbent that it proves optimal.
 * fk_search_init and fk_search_run run one search of the suffix-bound
 * precompute in calls, each of which returns after a leaf that becomes the
 * incumbent, after `chunk` expanded nodes, at the node cap or once the
 * incumbent is proven optimal.  fk_evaluate gives the reply of any
 * assignment, fk_relabel the least-cost relabelling of a cost table and
 * fk_sum Python's sum of a list of floats.
 *
 * Every value is a fixed sequence of roundings: nothing here may be built
 * with fast-math or contracted into fused multiply-adds.  Where the search
 * sums its cluster values (the root, each leaf, the start) it sums them as
 * the running interpreter's builtin sum does, and the reply sums its rows
 * in numpy's orders.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OPTIMAL = 0, LEAF = 1, CHUNK = 2, NODE_LIMIT = 3, NO_MEMORY = -1 };

/* A node's data, as subsolver.SearchTemplate lays it out and mirrored by
   the Node of its _search_types; read only here. */
typedef struct {
    const double *points;   /* n x n_y observations in branching order */
    const double *sq;       /* their squared norms */
    const double *sb;       /* n + 1 suffix bounds, read as the search goes */
    const double *lo, *hi;  /* n_y: the box */
    const double *Y;        /* n x n_y observations in observation order */
    const int64_t *order;   /* n: the observation at each branching position */
    const int64_t *start;   /* n: the start's label of each observation, or NULL */
    int64_t n, K, n_y;
    int64_t compensated;    /* Python's sum is Neumaier's (from 3.12 on) */
} node;

typedef struct {
    double bound;
    int64_t tiebreak;
    int64_t slot;
} entry;

/* What a search builds: the dual term's coefficients, its root and the
   open nodes.  A slot of the pool holds one open node: its value sum,
   depth and labels used as doubles, its K clusters, then its row of n
   labels.  A cluster is W = n_y + 3 doubles: count, sums, sumsq, value. */
typedef struct {
    double *dual;           /* K x n_y c / 2, K x n_y c, then the K empty clusters */
    double root_sum;        /* the empty clusters' summed value */
    int symmetric;          /* all rows of c are equal */
    double *clusters;       /* K clusters and K values: scratch of a leaf's value */
    entry *heap;
    int64_t heap_len, heap_cap;
    char *pool;
    int64_t n_slots, stride;
    int64_t *free_slots;
    int64_t n_free;
    int64_t tiebreak;
} work;

/* One search, mirrored by the Search of subsolver._search_types, which
   zeroes it. */
typedef struct {
    /* Set by the caller. */
    const node *d;
    const double *c;        /* K x n_y dual term */
    const double *empty;    /* K: the value of each empty cluster, c_k . m_k at its box corner */
    unsigned char *best;    /* n: the incumbent's labels at positions start..n-1 */
    int64_t start, max_nodes, chunk;
    int64_t take_every_leaf;  /* a leaf below the incumbent replaces it even at a higher value */
    /* Set by the search. */
    double ub;              /* the incumbent's value */
    double best_lb;
    int64_t explored, leaves;  /* expanded nodes, leaves taken as incumbents */
    work *w;                /* private to the search */
} search;

/* Python's sum(x) for a list of n floats: 0 plus each in turn, the sum
   compensated as Neumaier's from Python 3.12 on (CPython's builtin_sum).
   The first addition is int 0 + x[0], outside the compensated loop. */
static double py_sum(const double *x, int64_t n, int64_t compensated)
{
    if (n == 0)
        return 0.0;
    double sum = 0.0 + x[0], c = 0.0;
    for (int64_t i = 1; i < n; i++) {
        if (!compensated) {
            sum += x[i];
            continue;
        }
        double t = sum + x[i];
        if (fabs(sum) >= fabs(x[i]))
            c += (sum - t) + x[i];
        else
            c += (x[i] - t) + sum;
        sum = t;
    }
    if (c != 0.0 && isfinite(c))
        sum += c;
    return sum;
}

double fk_sum(const double *x, int64_t n, int64_t compensated)
{
    return py_sum(x, n, compensated);
}

/* The closed-form minimum of cluster `cl` under dual row k: each centroid
   coordinate (sum - c/2) / count clipped to the box, then
   sumsq + count |m|^2 - 2 sums.m + c.m, each dot summed from 0.0 in
   coordinate order. */
static double cluster_value(const search *s, const double *cl, int64_t k)
{
    const node *d = s->d;
    int64_t n_y = d->n_y;
    const double *half = s->w->dual + k * n_y, *c = s->w->dual + (d->K + k) * n_y;
    double count = cl[0], mm = 0.0, sm = 0.0, cm = 0.0;
    for (int64_t i = 0; i < n_y; i++) {
        double m = (cl[1 + i] - half[i]) / count;
        if (m < d->lo[i])
            m = d->lo[i];
        else if (m > d->hi[i])
            m = d->hi[i];
        mm += m * m;
        sm += cl[1 + i] * m;
        cm += c[i] * m;
    }
    return cl[n_y + 1] + (count * mm - 2.0 * sm + cm);
}

/* Cluster `cl`, labelled k, after adding the observation at branching
   position `pos`, into `out`, which may be `cl`. */
static void add_point(const search *s, const double *cl, int64_t pos, int64_t k, double *out)
{
    int64_t n_y = s->d->n_y;
    const double *y = s->d->points + pos * n_y;
    out[0] = cl[0] + 1.0;
    for (int64_t i = 0; i < n_y; i++)
        out[1 + i] = cl[1 + i] + y[i];
    out[n_y + 1] = cl[n_y + 1] + s->d->sq[pos];
    out[n_y + 2] = cluster_value(s, out, k);
}

/* The value of labelling positions start..n-1 with labels[start..n-1]: the
   root's clusters, the observations added one by one, the cluster values
   summed as Python sums a list. */
static double leaf_value(const search *s, const unsigned char *labels)
{
    const node *d = s->d;
    int64_t K = d->K, W = d->n_y + 3;
    double *clusters = s->w->clusters, *values = clusters + K * W;
    memcpy(clusters, s->w->dual + 2 * K * d->n_y, K * W * sizeof(double));
    for (int64_t pos = s->start; pos < d->n; pos++)
        add_point(s, clusters + labels[pos] * W, pos, labels[pos], clusters + labels[pos] * W);
    for (int64_t k = 0; k < K; k++)
        values[k] = clusters[k * W + W - 1];
    return py_sum(values, K, d->compensated);
}

/* The new label of each old label p that minimizes the sum of
   cost[p * K + new label], by dynamic programming over sets of old labels.
   rest[used] is the least cost of giving new labels |used|..K-1 to the
   other old labels.  Each new label in turn goes to the first old label
   whose least completion is within 1e-15 of rest[used], so near-ties go
   to the permutation that comes first in lexicographic order. */
static int relabel(const double *cost, int64_t K, int64_t *new_label)
{
    if (K > 40)
        return NO_MEMORY;
    double *rest = malloc(((size_t)1 << K) * sizeof(double));
    if (!rest)
        return NO_MEMORY;
    int64_t full = ((int64_t)1 << K) - 1;
    rest[full] = 0.0;
    for (int64_t used = full - 1; used >= 0; used--) {
        int64_t k = __builtin_popcountll((unsigned long long)used), first = 1;
        for (int64_t p = 0; p < K; p++) {
            if (used >> p & 1)
                continue;
            double v = cost[p * K + k] + rest[used | (int64_t)1 << p];
            if (first || v < rest[used])
                rest[used] = v;
            first = 0;
        }
    }
    int64_t used = 0;
    for (int64_t k = 0; k < K; k++) {
        for (int64_t p = 0; p < K; p++) {
            if (!(used >> p & 1) && cost[p * K + k] + rest[used | (int64_t)1 << p] <= rest[used] + 1e-15) {
                new_label[p] = k;
                used |= (int64_t)1 << p;
                break;
            }
        }
    }
    free(rest);
    return OPTIMAL;
}

int fk_relabel(const double *cost, int64_t K, int64_t *new_label)
{
    return relabel(cost, K, new_label);
}

/* numpy's pairwise sum of x[0..n-1] (the inner loop of np.add.reduce over
   a contiguous axis), then added to the reduction's identity, 0.0. */
static double pairwise(const double *x, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += x[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = x[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += x[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise(x, half) + pairwise(x + half, n - half);
}

static double np_sum(const double *x, int64_t n)
{
    return 0.0 + pairwise(x, n);
}

/* The reply of `labels`, one per observation of the n x n_y rows Y: each
   cluster's centroid into `centroids` and the summed cluster cost, with
   numpy's arithmetic in subsolver.closed_form_centroid and its reference.
   A cluster's rows, in observation order, are summed column by column as
   Y[labels == k].sum(axis=0) sums them (pairwise when n_y is 1, row by row
   otherwise); the centroid is (sums - 0.5 c) / count clipped as np.clip
   clips, or the box corner of np.where for an empty cluster; its cost is
   np.sum((rows - m) ** 2), 0.0 when empty, and the costs are added to 0.0
   in cluster order.  `scratch` holds n * n_y doubles. */
static double reply(const double *Y, int64_t n, int64_t n_y, int64_t K, const double *c,
                    const double *lo, const double *hi, const int64_t *labels, double *centroids,
                    double *scratch)
{
    double cluster_cost = 0.0;
    for (int64_t k = 0; k < K; k++) {
        const double *c_k = c + k * n_y;
        double *m = centroids + k * n_y;
        int64_t count = 0;
        for (int64_t j = 0; j < n; j++)
            if (labels[j] == k)
                memcpy(scratch + count++ * n_y, Y + j * n_y, n_y * sizeof(double));
        if (!count) {
            for (int64_t i = 0; i < n_y; i++)
                m[i] = c_k[i] > 0 ? lo[i] : c_k[i] < 0 ? hi[i] : 0.5 * (lo[i] + hi[i]);
            continue;
        }
        for (int64_t i = 0; i < n_y; i++) {
            double sum;
            if (n_y == 1) {
                sum = np_sum(scratch, count);
            } else {
                sum = 0.0;
                for (int64_t r = 0; r < count; r++)
                    sum += scratch[r * n_y + i];
            }
            double x = (sum - 0.5 * c_k[i]) / (double)count;
            x = x > lo[i] ? x : lo[i];
            m[i] = x < hi[i] ? x : hi[i];
        }
        for (int64_t r = 0; r < count; r++)
            for (int64_t i = 0; i < n_y; i++) {
                double diff = scratch[r * n_y + i] - m[i];
                scratch[r * n_y + i] = diff * diff;
            }
        cluster_cost += np_sum(scratch, count * n_y);
    }
    return cluster_cost;
}

int fk_evaluate(const double *Y, int64_t n, int64_t n_y, int64_t K, const double *c, const double *lo,
                const double *hi, const int64_t *labels, double *centroids, double *cluster_cost)
{
    double *scratch = malloc((n * n_y + 1) * sizeof(double));
    if (!scratch)
        return NO_MEMORY;
    *cluster_cost = reply(Y, n, n_y, K, c, lo, hi, labels, centroids, scratch);
    free(scratch);
    return OPTIMAL;
}

static int before(const entry *a, const entry *b)
{
    return a->bound < b->bound || (a->bound == b->bound && a->tiebreak < b->tiebreak);
}

static void push(work *o, entry e)
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

static entry pop(work *o)
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
static int reserve(work *o, int64_t more)
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
    work *w = s->w;
    if (w) {
        free(w->dual);
        free(w->clusters);
        free(w->heap);
        free(w->pool);
        free(w->free_slots);
        free(w);
        s->w = NULL;
    }
}

/* The search's work: the coefficients c / 2 and c, the root's empty
   clusters and their summed value, and whether the rows of c are equal. */
static int open_work(search *s)
{
    const node *d = s->d;
    int64_t K = d->K, n_y = d->n_y, W = n_y + 3;
    work *w = s->w = calloc(1, sizeof(work));
    if (!w)
        return NO_MEMORY;
    w->dual = malloc((2 * K * n_y + K * W) * sizeof(double));
    w->clusters = malloc(K * (W + 1) * sizeof(double));
    if (!w->dual || !w->clusters)
        return NO_MEMORY;
    w->symmetric = 1;
    for (int64_t k = 0; k < K; k++) {
        double *root = w->dual + 2 * K * n_y + k * W;
        for (int64_t i = 0; i < n_y; i++) {
            double c = s->c[k * n_y + i];
            w->dual[k * n_y + i] = 0.5 * c;
            w->dual[(K + k) * n_y + i] = c;
            if (c != s->c[i])
                w->symmetric = 0;
        }
        memset(root, 0, (W - 1) * sizeof(double));
        root[W - 1] = s->empty[k];
    }
    w->root_sum = py_sum(s->empty, K, d->compensated);
    w->stride = (int64_t)sizeof(double) * (3 + K * W) + (d->n + 7) / 8 * 8;
    return reserve(w, K + 1) ? OPTIMAL : NO_MEMORY;
}

/* Opens the root at depth s->start and sets best_lb to its bound. */
static void open_root(search *s)
{
    const node *d = s->d;
    work *w = s->w;
    int64_t K = d->K, W = d->n_y + 3;
    int64_t slot = w->free_slots[--w->n_free];
    double *root = (double *)(w->pool + slot * w->stride);
    root[0] = w->root_sum;
    root[1] = (double)s->start;
    root[2] = 0.0;
    memcpy(root + 3, w->dual + 2 * K * d->n_y, K * W * sizeof(double));
    s->best_lb = w->root_sum + d->sb[s->start];
    push(w, (entry){s->best_lb, 0, slot});
}

/* A search of the precompute over positions start..n-1, whose incumbent is
   the best labelling (k, best[start + 1..n-1]), the first of equal values:
   best[start + 1..n-1] holds the optimum of the previous suffix. */
int fk_search_init(search *s)
{
    s->explored = s->leaves = 0;
    if (open_work(s) < 0)
        return NO_MEMORY;
    s->ub = INFINITY;
    int64_t least = 0;
    for (int64_t k = s->d->K - 1; k >= 0; k--) {
        s->best[s->start] = (unsigned char)k;
        double value = leaf_value(s, s->best);
        if (value <= s->ub) {
            s->ub = value;
            least = k;
        }
    }
    s->best[s->start] = (unsigned char)least;
    open_root(s);
    return OPTIMAL;
}

int fk_search_run(search *s)
{
    const node *d = s->d;
    work *o = s->w;
    int64_t n = d->n, K = d->K, n_y = d->n_y, W = n_y + 3;
    int64_t stop = s->chunk > INT64_MAX - s->explored ? INT64_MAX : s->explored + s->chunk;
    double *added = o->clusters;
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
        if (depth == n) {  /* a leaf below the incumbent, valued afresh */
            unsigned char *labels = (unsigned char *)(node + 3 + K * W);
            double value = leaf_value(s, labels);
            o->free_slots[o->n_free++] = top.slot;
            if (value < s->ub || s->take_every_leaf) {
                s->ub = value;
                memcpy(s->best + s->start, labels + s->start, n - s->start);
                s->leaves++;
                return LEAF;
            }
            continue;
        }
        if (++s->explored >= s->max_nodes)
            return NODE_LIMIT;
        if (!reserve(o, K))
            return NO_MEMORY;
        node = (double *)(o->pool + top.slot * o->stride);
        double pc_sum = node[0];
        int64_t used = (int64_t)node[2];
        double below = d->sb[depth + 1];
        int64_t n_children = o->symmetric && used + 1 < K ? used + 1 : K;
        for (int64_t k = 0; k < n_children; k++) {
            const double *cl = node + 3 + k * W;
            add_point(s, cl, depth, k, added);
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

/* What fk_solve returns besides its status, labels and centroids; mirrored
   by the Result of subsolver._search_types. */
typedef struct {
    double value;           /* the incumbent's value in the search's arithmetic, or infinity */
    double lb;              /* the proven lower bound */
    double cluster_cost;    /* the reply's summed cluster cost */
    int64_t explored;
} result;

/* A whole solve of node d under dual term c, whose empty clusters have the
   values `empty`.  The start, if d has one, is relabelled by the least-cost
   permutation of the table of its parts' values under each label (kept as
   it is when the rows of c are equal) and valued as the sum of the picked
   entries in new label order; its parts sum their observations in
   branching order, as a leaf does.  A leaf replaces the incumbent only when
   its value is lower.  Writes the incumbent's labels by observation and
   its reply; OPTIMAL, NODE_LIMIT or NO_MEMORY. */
int fk_solve(const node *d, const double *c, const double *empty, int64_t max_nodes, int64_t *labels,
             double *centroids, result *r)
{
    int64_t n = d->n, K = d->K, n_y = d->n_y, W = n_y + 3;
    search s = {d, c, empty, NULL, 0, max_nodes, INT64_MAX, 0, INFINITY, 0.0, 0, 0, NULL};
    /* Scratch: the start's K parts, its K x K table, the K picked values,
       the reply's n x n_y rows, K new labels and the n best labels. */
    double *parts = malloc((K * W + K * K + K + n * n_y) * sizeof(double) + K * sizeof(int64_t) + n);
    int status = parts ? open_work(&s) : NO_MEMORY;
    if (status < 0)
        goto done;
    double *table = parts + K * W, *picked = table + K * K, *rows = picked + K;
    int64_t *new_label = (int64_t *)(rows + n * n_y);
    s.best = (unsigned char *)(new_label + K);
    if (d->start) {
        memset(parts, 0, K * W * sizeof(double));
        for (int64_t pos = 0; pos < n; pos++) {
            double *part = parts + d->start[d->order[pos]] * W;
            part[0] += 1.0;
            for (int64_t i = 0; i < n_y; i++)
                part[1 + i] += d->points[pos * n_y + i];
            part[n_y + 1] += d->sq[pos];
        }
        for (int64_t p = 0; p < K; p++)
            for (int64_t k = 0; k < K; k++)
                table[p * K + k] = parts[p * W] ? cluster_value(&s, parts + p * W, k) : empty[k];
        if (s.w->symmetric) {
            for (int64_t k = 0; k < K; k++)
                new_label[k] = k;
        } else if ((status = relabel(table, K, new_label)) < 0) {
            goto done;
        }
        for (int64_t p = 0; p < K; p++)
            picked[new_label[p]] = table[p * K + new_label[p]];
        s.ub = py_sum(picked, K, d->compensated);
    }
    open_root(&s);
    while ((status = fk_search_run(&s)) == LEAF)
        ;
    if (status < 0)
        goto done;
    r->lb = status == OPTIMAL && s.ub > s.best_lb ? s.ub : s.best_lb;
    r->value = s.ub;
    r->explored = s.explored;
    if (s.leaves) {
        for (int64_t pos = 0; pos < n; pos++)
            labels[d->order[pos]] = s.best[pos];
    } else if (d->start) {
        for (int64_t j = 0; j < n; j++)
            labels[j] = new_label[d->start[j]];
    } else {
        goto done;
    }
    r->cluster_cost = reply(d->Y, n, n_y, K, c, d->lo, d->hi, labels, centroids, rows);
done:
    fk_search_free(&s);
    free(parts);
    return status;
}
