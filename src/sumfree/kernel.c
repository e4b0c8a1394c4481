/* The compiled MIS recursion, the branch route's per-seed counts, the
   two-step listing and the oracle route's counting DFS (see kernel.py).

   `search` is mis._search's candidates/excluded recursion with its pivot
   rule: it counts the maximal independent sets that meet every cover pair,
   cutting a branch whose reach fails one, and with no pair and no listing
   memoises on (cand, excl); with a listing it pushes the chosen set at
   each maximal leaf.  `mis_count` runs it on one root, or with no pair and
   no listing takes the product over the components of free.  Three entry
   points call it:

   - sumfree_mis, on any graph of at most 64 vertices and 64 pairs given by
     the caller: the count, or the chosen set at each maximal leaf, listed
     in the search's order into a buffer that grows on demand;
   - sumfree_seed_counts and sumfree_seed_listing, which build each seed's
     problem themselves from the definitions (`seed_problem`).  For a
     sum-free seed S and a sum-free part B disjoint from it, the sets of
     [n] that are S joined with some I inside B are worked in B's index
     space (vertex i is the element min B + i, B spanning at most 64 bits):
     - blocked = (S+S) | (S-S) | {s/2 : s in S even}, positive members only;
     - the link graph on B: i ~ j when their elements differ by or sum to a
       member of S;
     - free = B less blocked, the vertices that can join S;
     - one cover pair (y, {y + s, |y - s| : s in S} | {2y, y/2}) per open
       y <= 2 min B, an element of [n] outside B that S neither holds nor
       blocks: S | I blocks y iff I meets the pair's hit set or two members
       of I differ by y, since no two members of B sum to y;
     - the other open y, unpaired, where the listing re-tests each union
       S | I by blocked's definition, on u128 masks (n <= 128).
     The counts take B = (n/2, n], where no y is unpaired: f sums i(G), the
     independent sets inside free, by i(c) = i(c - v) + i(c minus N[v]) for
     the lowest v of c, memoised on c; f_max sums mis_count.  The listing
     takes any such B and appends the maximal S | I seed by seed.

   The memos are open-addressing tables: sumfree_mis makes one per call,
   sumfree_seed_counts empties its two per seed by a new stamp.

   The fourth entry point, sumfree_dfs_counts, shares no function with
   search, independent, seed_problem or the memos: it walks every sum-free
   subset of [n] by its least element and counts each one it meets
   (`walk`). */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

enum { KERNEL_OK, KERNEL_BAD_INPUT, KERNEL_OVERFLOW, KERNEL_NO_MEMORY, KERNEL_LIMIT };

struct slot { u64 a, b, value, stamp; };
struct memo { struct slot *slots; size_t mask, used; u64 stamp; };

/* A listing's words, grown by doubling up to cap of them. */
struct listing { u64 *sets; size_t used, size, cap; };

struct problem {
    int pairs, err;
    u64 nbr[64], hit[64];
    int shift[64];
    struct memo *count, *mis;
    struct listing *out;  /* set: list each maximal leaf, memo off */
};

static u64 bit(int i) { return (u64)1 << i; }

static struct slot *probe(struct memo *t, u64 a, u64 b)
{
    u64 h = a * 0x9E3779B97F4A7C15u ^ b * 0xC2B2AE3D27D4EB4Fu;
    size_t i = (size_t)(h ^ h >> 31) & t->mask;
    while (t->slots[i].stamp == t->stamp && (t->slots[i].a != a || t->slots[i].b != b))
        i = (i + 1) & t->mask;
    return &t->slots[i];
}

static int memo_init(struct memo *t)
{
    t->mask = 4095;
    t->used = 0;
    t->stamp = 1;
    t->slots = calloc(t->mask + 1, sizeof *t->slots);
    return t->slots != NULL;
}

/* Stores (a, b) -> value, doubling the table past half full. */
static int memo_store(struct memo *t, u64 a, u64 b, u64 value)
{
    if (2 * (t->used + 1) > t->mask + 1) {
        struct memo grown = { calloc(2 * (t->mask + 1), sizeof *t->slots),
                              2 * t->mask + 1, t->used, t->stamp };
        if (!grown.slots)
            return 0;
        for (size_t i = 0; i <= t->mask; i++)
            if (t->slots[i].stamp == t->stamp)
                *probe(&grown, t->slots[i].a, t->slots[i].b) = t->slots[i];
        free(t->slots);
        *t = grown;
    }
    struct slot *s = probe(t, a, b);
    *s = (struct slot){ a, b, value, t->stamp };
    t->used++;
    return 1;
}

static u64 add(struct problem *p, u64 x, u64 y)
{
    u64 sum;
    if (__builtin_add_overflow(x, y, &sum))
        p->err = KERNEL_OVERFLOW;
    return sum;
}

static u64 independent(struct problem *p, u64 c)
{
    if (!c || p->err)
        return 1;
    struct slot *s = probe(p->count, c, 0);
    if (s->stamp == p->count->stamp)
        return s->value;
    u64 low = c & -c, rest = c ^ low, near = rest & p->nbr[__builtin_ctzll(low)];
    u64 without = independent(p, rest);
    u64 total = add(p, without, near ? independent(p, rest ^ near) : without);
    if (!memo_store(p->count, c, 0, total))
        p->err = KERNEL_NO_MEMORY;
    return total;
}

/* Appends one word; a KERNEL_* code. */
static int push(struct listing *l, u64 word)
{
    if (l->used == l->cap)
        return KERNEL_LIMIT;
    if (l->used == l->size) {
        size_t size = l->size ? 2 * l->size : 64;
        u64 *grown = realloc(l->sets, size * sizeof *grown);
        if (!grown)
            return KERNEL_NO_MEMORY;
        l->sets = grown;
        l->size = size;
    }
    l->sets[l->used++] = word;
    return KERNEL_OK;
}

static u64 search(struct problem *p, u64 cand, u64 excl, u64 chosen)
{
    if (p->err)
        return 0;
    u64 reach = chosen | cand;
    for (int k = 0; k < p->pairs; k++)
        if (!(reach & p->hit[k]) && !(p->shift[k] < 64 && reach & reach >> p->shift[k]))
            return 0;
    if (!cand) {
        if (!excl && p->out)
            p->err = push(p->out, chosen);
        return !excl;
    }
    int memo = !p->pairs && !p->out;
    if (memo) {
        struct slot *s = probe(p->mis, cand, excl);
        if (s->stamp == p->mis->stamp)
            return s->value;
    }
    int pivot = 0, best = -1;
    for (u64 mm = cand | excl; mm; mm &= mm - 1) {
        int v = __builtin_ctzll(mm), k = __builtin_popcountll(cand & p->nbr[v]);
        if (best < 0 || k < best) {
            pivot = v;
            best = k;
            if (!k)
                break;
        }
    }
    u64 total = 0, c = cand, x = excl;
    for (u64 branch = cand & (p->nbr[pivot] | bit(pivot)); branch; branch &= branch - 1) {
        u64 low = branch & -branch, near = p->nbr[__builtin_ctzll(low)];
        total = add(p, total, search(p, c & ~near & ~low, x & ~near, chosen | low));
        c &= ~low;
        x |= low;
    }
    if (memo && !memo_store(p->mis, cand, excl, total))
        p->err = KERNEL_NO_MEMORY;
    return total;
}

/* The maximal independent sets inside free that meet every pair, each
   listed if p->out is set.  A pair can join components and a listing is
   one search, so only a plain count multiplies theirs. */
static u64 mis_count(struct problem *p, u64 free_)
{
    if (p->pairs || p->out)
        return search(p, free_, 0, 0);
    u64 product = 1;
    for (u64 rest = free_; rest; ) {
        u64 comp = rest & -rest, frontier = comp;
        while (frontier) {
            u64 next = 0;
            for (; frontier; frontier &= frontier - 1)
                next |= p->nbr[__builtin_ctzll(frontier)];
            frontier = next & rest & ~comp;
            comp |= frontier;
        }
        rest &= ~comp;
        if (__builtin_mul_overflow(product, search(p, comp, 0, 0), &product))
            p->err = KERNEL_OVERFLOW;
    }
    return product;
}

/* The mask of [n], 1 <= n <= 128. */
static u128 ground(int n)
{
    return n == 128 ? ~(u128)0 : ((u128)1 << n) - 1;
}

/* The lowest set bit of a nonzero m. */
static int low_bit(u128 m)
{
    u64 lo = (u64)m;
    return lo ? __builtin_ctzll(lo) : 64 + __builtin_ctzll((u64)(m >> 64));
}

/* The positive members of (S+S) | (S-S) | {s/2 : s in S even}, element e
   at bit e - 1, as intset.mask_blocked.  Shifts by z run as z - 1 and 1,
   so z = 128 stays defined. */
static u128 blocked_of(u128 s)
{
    u128 blocked = 0;
    for (u128 zs = s; zs; zs &= zs - 1) {
        int z = low_bit(zs) + 1;
        blocked |= s << (z - 1) << 1 | s >> (z - 1) >> 1;
        if (z % 2 == 0)
            blocked |= (u128)1 << (z / 2 - 1);
    }
    return blocked;
}

/* The elements e + z, e - z and z - e for the z in S, past 0: an element's
   link-graph neighbours, and what blocks an open e with S.  rev holds z at
   bit 128 - z, so e - z is bit e - z - 1 of rev >> (129 - e).  Shifts by e
   run in two steps, so e = 1 and e = 128 stay defined. */
static u128 near_of(u128 s, u128 rev, int e)
{
    return s << (e - 1) << 1 | s >> (e - 1) >> 1 | rev >> (128 - e) >> 1;
}

/* Builds census._seed_graph's problem for the seed S and the part B in
   B's index space, vertex i being the element low + 1 + i (low + 1 = min
   B, B spanning at most 64 bits): the link graph, which joins i and j when
   their elements differ by or sum to a member of S, and one cover pair
   (y, the members of B at y + s, |y - s|, 2y or y/2 for s in S) per open
   y up to 2 min B, the open y being the elements of [n] outside B that S
   neither holds nor blocks (at most 64 of them there, which the caller
   checks).  Returns free, B less blocked(S), and the other open y in
   *unpaired. */
static u64 seed_problem(struct problem *p, int n, u128 part, int low, u128 seed, u128 *unpaired)
{
    u128 all = ground(n), blocked = blocked_of(seed), rev = 0;
    for (u128 zs = seed; zs; zs &= zs - 1)
        rev |= (u128)1 << (127 - low_bit(zs));
    u64 verts = (u64)(part >> low);
    for (u64 vs = verts; vs; vs &= vs - 1) {
        int i = __builtin_ctzll(vs);
        p->nbr[i] = (u64)(near_of(seed, rev, low + 1 + i) >> low) & verts & ~bit(i);
    }
    u128 opened = all & ~part & ~seed & ~blocked, paired = 0;
    if (part)
        paired = 2 * (low + 1) >= 128 ? opened : opened & (((u128)1 << 2 * (low + 1)) - 1);
    *unpaired = opened & ~paired;
    p->pairs = 0;
    for (; paired; paired &= paired - 1) {
        int y = low_bit(paired) + 1;
        u128 hit = near_of(seed, rev, y);
        if (2 * y <= n)
            hit |= (u128)1 << (2 * y - 1);
        if (y % 2 == 0)
            hit |= (u128)1 << (y / 2 - 1);
        p->shift[p->pairs] = y;
        p->hit[p->pairs++] = (u64)((hit & part) >> low);
    }
    return verts & ~(u64)(blocked >> low);
}

/* (f, f_max) shares of one seed in [n/2] on the upper half, where 2 min B
   passes n, so no open y is unpaired; the memos get a fresh stamp first. */
static void seed_counts(struct problem *p, int n, u64 seed, u64 out[2])
{
    int h = n / 2;
    u128 all = ground(n), unpaired;
    u64 free_ = seed_problem(p, n, all >> h << h, h, seed, &unpaired);
    p->count->stamp++;
    p->count->used = 0;
    p->mis->stamp++;
    p->mis->used = 0;
    out[0] = independent(p, free_);
    out[1] = mis_count(p, free_);
}

/* Sums (f, f_max) into out over the `count` seeds, each a mask of [n/2]
   with element z at bit z - 1.  Returns a KERNEL_* code; out is valid only
   on KERNEL_OK. */
int sumfree_seed_counts(int n, const u64 *seeds, size_t count, u64 out[2])
{
    if (n < 1 || n - n / 2 > 64)
        return KERNEL_BAD_INPUT;
    for (size_t k = 0; k < count; k++)
        if (n / 2 < 64 && seeds[k] >> n / 2)
            return KERNEL_BAD_INPUT;
    struct memo count_memo, mis_memo;
    struct problem p = { .count = &count_memo, .mis = &mis_memo };
    int ok_count = memo_init(&count_memo), ok_mis = memo_init(&mis_memo);
    out[0] = out[1] = 0;
    if (!ok_count || !ok_mis)
        p.err = KERNEL_NO_MEMORY;
    for (size_t k = 0; k < count && !p.err; k++) {
        u64 shares[2];
        seed_counts(&p, n, seeds[k], shares);
        out[0] = add(&p, out[0], shares[0]);
        out[1] = add(&p, out[1], shares[1]);
    }
    free(count_memo.slots);
    free(mis_memo.slots);
    return p.err;
}

/* The maximal independent sets of the graph nbr on the vertex mask free
   (vertex i is bit i, i < verts <= 64, with neighbour mask nbr[i]) that
   meet each pair (shifts[k], hits[k]), k < pairs <= 64: some member in
   hits[k], or, for shifts[k] < 64, two members shifts[k] apart.  out[0]
   is their number; when `listing`, out[1] is the address of a buffer of
   that many vertex masks in mis._search's order (or 0 for none), which the
   caller frees with sumfree_release.  Returns a KERNEL_* code; out is valid
   only on KERNEL_OK. */
int sumfree_mis(const u64 *nbr, int verts, u64 free_, const int *shifts,
                const u64 *hits, int pairs, int listing, u64 out[2])
{
    if (verts < 0 || verts > 64 || pairs < 0 || pairs > 64 || (verts < 64 && free_ >> verts))
        return KERNEL_BAD_INPUT;
    struct memo memo = { 0 };
    struct listing sets = { .cap = SIZE_MAX };
    struct problem p = { .pairs = pairs, .mis = &memo, .out = listing ? &sets : NULL };
    for (int i = 0; i < verts; i++)
        p.nbr[i] = nbr[i];
    for (int k = 0; k < pairs; k++) {
        if (shifts[k] < 0)
            return KERNEL_BAD_INPUT;
        p.shift[k] = shifts[k];
        p.hit[k] = hits[k];
    }
    if (!pairs && !listing && !memo_init(&memo))
        p.err = KERNEL_NO_MEMORY;
    out[0] = p.err ? 0 : mis_count(&p, free_);
    out[1] = (uintptr_t)sets.sets;
    free(memo.slots);
    if (p.err)
        free(sets.sets);
    return p.err;
}

/* Appends to `sets` the maximal sum-free S | I of [n] for one seed S and
   the part B: seed_problem's maximal independent sets, listed by search
   into p->out, each union re-tested at the unpaired y by blocked_of. */
static void seed_listing(struct problem *p, int n, u128 part, int low, u128 seed,
                         struct listing *sets)
{
    u128 unpaired;
    u64 free_ = seed_problem(p, n, part, low, seed, &unpaired);
    p->out->used = 0;
    search(p, free_, 0, 0);
    for (size_t k = 0; k < p->out->used && !p->err; k++) {
        u128 m = seed | (u128)p->out->sets[k] << low;
        if (unpaired && unpaired & ~blocked_of(m))
            continue;
        p->err = push(sets, (u64)m);
        if (!p->err && n > 64)
            p->err = push(sets, (u64)(m >> 64));
    }
}

/* Mask k of a batch of one-word (words = 1) or two-word masks. */
static u128 mask_at(const u64 *masks, int words, size_t k)
{
    return words == 1 ? masks[k] : masks[2 * k] | (u128)masks[2 * k + 1] << 64;
}

/* The maximal sum-free sets S | I of [n], 1 <= n <= 128, for each of the
   `count` seeds S in turn, I inside the part B = part_lo | part_hi << 64:
   B a sum-free mask of [n] spanning at most 64 bits, with at most 64
   elements of [2 min B] outside it, and each S a sum-free mask of [n]
   outside B.  A mask is one word (n <= 64) or two, low word first, in
   `seeds` as in the listing.  out[0] is the number of sets; out[1] the
   address of a buffer of them, seed by seed in search's order (or 0 for
   none), which the caller frees with sumfree_release.  A seed with more
   than cap maximal independent sets under its cover returns KERNEL_LIMIT.
   Returns a KERNEL_* code; out is valid only on KERNEL_OK. */
int sumfree_seed_listing(int n, u64 part_lo, u64 part_hi, const u64 *seeds, size_t count,
                         u64 cap, u64 out[2])
{
    if (n < 1 || n > 128)
        return KERNEL_BAD_INPUT;
    u128 all = ground(n), part = part_lo | (u128)part_hi << 64;
    int low = part ? low_bit(part) : 0, words = n > 64 ? 2 : 1;
    u128 below = !part ? 0 : 2 * (low + 1) >= n ? all : ((u128)1 << 2 * (low + 1)) - 1;
    u128 outside = below & ~part;
    if (part & ~all || part >> low >> 32 >> 32
        || __builtin_popcountll((u64)outside) + __builtin_popcountll((u64)(outside >> 64)) > 64)
        return KERNEL_BAD_INPUT;
    for (size_t k = 0; k < count; k++)
        if (mask_at(seeds, words, k) & (~all | part))
            return KERNEL_BAD_INPUT;
    struct listing found = { .cap = cap }, sets = { .cap = SIZE_MAX };
    struct problem p = { .out = &found };
    for (size_t k = 0; k < count && !p.err; k++)
        seed_listing(&p, n, part, low, mask_at(seeds, words, k), &sets);
    free(found.sets);
    out[0] = sets.used / words;
    out[1] = (uintptr_t)sets.sets;
    if (p.err)
        free(sets.sets);
    return p.err;
}

void sumfree_release(u64 *sets)
{
    free(sets);
}

/* The counting DFS.  A node is a sum-free p of [n] (element e at bit e - 1)
   with least member lo; it carries blk, the differences p - p and the
   halves of p's even members, and ext, the elements above lo that can
   join p.  An x < lo can join p iff x is not in blk, so p's kids are the
   elements below lo outside blk.  The child p | {x} has blk | (p - x) |
   {x/2}, and its ext is acc less (p + x), (p - x) and 2x, where acc is
   ext plus the kids above x.  A node with no kid and ext = 0 is maximal.

   The nodes where lo first drops to cut or below are the tasks, met in the
   walk's order (kids from the highest down); a stripe walks the tasks k
   with k mod stripes = stripe, and stripe 0 alone counts the nodes above
   the cut.  A count grows by one per node, so it cannot wrap in any
   feasible run. */
struct walk { int cut, stripe, stripes; u128 low; u64 task, f, f_max; };

/* The element of m's highest member. */
static int top(u128 m)
{
    u64 hi = (u64)(m >> 64);
    return hi ? 128 - __builtin_clzll(hi) : 64 - __builtin_clzll((u64)m);
}

/* Counts the children of p and their subtrees.  Shifts by x run as x - 1
   and 1, so x = 128 stays defined. */
static void walk(struct walk *w, u128 p, u128 blk, u128 ext)
{
    u128 kids = ((p & -p) - 1) & ~blk;
    for (u128 acc = ext; kids; ) {
        int x = top(kids), below = x <= w->cut;
        u128 b = (u128)1 << (x - 1), down = p >> (x - 1) >> 1;
        u128 kid_blk = blk | down | (x % 2 ? 0 : (u128)1 << (x / 2 - 1));
        u128 kid_ext = acc & ~(p << (x - 1) << 1 | down | b << (x - 1) << 1);
        kids ^= b;
        acc |= b;
        if (below && !(p & w->low) && w->task++ % (u64)w->stripes != (u64)w->stripe)
            continue;
        u128 kid_kids = (b - 1) & ~kid_blk;
        if (below || !w->stripe) {
            w->f++;
            w->f_max += !(kid_kids | kid_ext);
        }
        if (kid_kids)
            walk(w, p | b, kid_blk, kid_ext);
    }
}

/* (f, f_max) into out over one stripe of the sum-free subsets of [n]:
   1 <= n <= 128, 0 <= cut <= n and 0 <= stripe < stripes.  Returns a
   KERNEL_* code; out is valid only on KERNEL_OK. */
int sumfree_dfs_counts(int n, int cut, int stripe, int stripes, u64 out[2])
{
    if (n < 1 || n > 128 || cut < 0 || cut > n || stripe < 0 || stripe >= stripes)
        return KERNEL_BAD_INPUT;
    struct walk w = { cut, stripe, stripes, cut ? ((u128)2 << (cut - 1)) - 1 : 0,
                       0, !stripe, 0 };  /* stripe 0 counts the empty set */
    /* the root blocks the elements past n, so no node takes one */
    walk(&w, 0, n == 128 ? 0 : ~(u128)0 << n, 0);
    out[0] = w.f;
    out[1] = w.f_max;
    return KERNEL_OK;
}
