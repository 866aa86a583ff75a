/* C core: the two-lane calendar-queue Simulator, the packet plane, the
 * forwarding hop, the NetClone switch pass, the server's and the
 * client's request paths (with a replay of the KV service), the latency
 * recorder and the workloads' chunk draws.
 *
 * Drop-in replacement for repro.sim.core.Simulator (the pure-Python
 * engine stays as the reference implementation and fallback).  The
 * data layout is deliberately identical at the Python level:
 *
 *   - `_tail` is a real Python list of `(time, seq, fn, args)` entry
 *     tuples kept sorted by construction (a C-side head index stands
 *     in for deque.popleft; consumed slots are None-ed out and the
 *     prefix is sliced away amortised-O(1)),
 *   - `_heap` is a real Python list maintained with heapq's invariant,
 *   - `_seq` / `now` are C int64 fields exposed as attributes.
 *
 * Keeping the lanes as genuine Python lists means code that inspects
 * `sim._tail` / `sim._heap` works unchanged on either engine, and
 * `heapq.heappush` from Python interleaves correctly with C pops (the
 * comparison order is the same numeric `(time, seq)` order).  No
 * module outside sim/ pushes onto the lanes: every Python call site
 * goes through `call_at` / `call_after`, which is cheaper here than an
 * inlined Python push.
 *
 * Entry tuples are allocated from the interpreter's pooled small-tuple
 * free list, and zero-argument calls reuse the empty-tuple singleton,
 * so steady-state scheduling does no allocator round-trips beyond the
 * entry itself.
 *
 * The API is the Python engine's single scheduling path: `call_at` /
 * `call_after` push a fire-and-forget entry; `run` / `peek` consume
 * and inspect the lanes.
 *
 * Ordering contract (identical to the Python engine): events fire in
 * total `(time, seq)` order; seq is unique and monotone, so
 * same-instant events are FIFO and payloads are never compared.
 *
 * The packet plane.  `PacketCore`, `PoolCore` and `HeaderCore` are the
 * C twins of net/packet.py's `_PacketCore`/`_PoolCore` and
 * core/header.py's `_HeaderCore`, which stay the reference; `Packet`,
 * `PacketPool` and `NetCloneHeader` subclass whichever is live.  They
 * hold every Python-visible field as a T_OBJECT_EX member (so Python
 * code reads and writes them as it would `__slots__`) and carry the
 * per-life operations: `acquire` (per-pool uids in acquire order, a
 * LIFO free list), `release` (idempotent, drops payload and header)
 * and `copy` (fresh uid, clean switch metadata, its own header).  The
 * hop and the pass read and write packet and header fields off these
 * structs, and go by attribute for any other object.  A release or a
 * copy made in C calls the C method directly only when Python would
 * resolve the name to it; a class-level wrapper, the sanitizer's
 * `acquire` override or its ledger free list is called instead.
 *
 * The forwarding hop.  Three base types carry the per-packet work of
 * a hop with no Python frame: `DirectionCore` (net/link.py's
 * `Direction.push`: serialisation booking, then the receiver's
 * wiring-time entry or a scheduler entry built here), `SwitchCore`
 * (switchsim/switch.py's `link_ingress` and `_egress`) and `HostCore`
 * (net/host.py's `send` and `link_rx_at`).  Each is the C twin of a
 * pure-Python class of the same name in its module, which stays the
 * reference; the Python classes subclass whichever is live.  The hop
 * calls into Python for everything that is not plain forwarding:
 * dynamic route selectors, `Link.send` for a link that can drop, a
 * wrapped `Packet.release`, the receiver's entry point (so class-level
 * wrappers installed before wiring still see every call), and any
 * switch program pass other than the one below.  Scheduling from the
 * hop consumes one seq per event, exactly like the `call_at` it
 * replaces.
 *
 * The NetClone pass.  `NetClonePass` is Algorithm 1 (core/program.py)
 * compiled for one program: the C twin of the closure
 * `NetCloneProgram._compile_apply` builds on the pure-Python engine,
 * which stays the reference.  It works on the program's own register
 * memory and its live table dicts, and `SwitchCore` runs it with no
 * Python frame when it is exactly the installed `_fast_apply` (a
 * tracer's wrapper or any other program is called instead).
 * `SwitchCore.recirculate` and `_run_recirculated` carry a
 * clone's second pass: the pass calls `switch.recirculate`, which
 * schedules the `_run_recirculated` the switch resolved when it was
 * built, so a class-level wrapper still sees every recirculated pass.
 *
 * The server.  `ServerCore` extends `HostCore` with core/server.py's
 * request path (`handle`, `_start_work`, `_finish_work`, `_respond`):
 * accept or drop (a stale clone, a non-request), queue, dispatch,
 * execute and respond with the queue length piggybacked, the C twin of
 * that module's `_ServerCore`, which stays the reference.  `RpcServer`
 * combines `Host` with it, so one object holds the NIC slots and the
 * server state.  For apps/service.py's `KvService` it replays the
 * service time, the jitter, the execution's checks and counters and
 * the response size, from the methods `configure_server` registered
 * (`KvService`'s, `KvCostModel`'s, `KeyValueStore`'s and
 * `JitterModel`'s), as long as Python would resolve each name to
 * them.  It calls into Python for the RNG draw, any other service that
 * is not a trivial spin, an override or a wrapper of those methods, a
 * case the replay does not cover, and any of its own methods, `send`,
 * `release` or `acquire` that Python would not resolve to the C
 * method.
 *
 * The client.  `ClientCore` extends `HostCore` with apps/client.py's
 * request path (`_send_one`, `handle`, `_refill_arrivals`, `_next_gap`,
 * `_flush_arrivals`): pre-draw arrival records in chunks, send one per
 * gap, and record the first response to each request, the C twin of
 * that module's `_ClientCore`, which stays the reference.
 * `OpenLoopClient` combines `Host` with it.  It also carries the
 * NetClone and Baseline packet builders, which `NetCloneClient` and
 * `BaselineClient` name as their `build_packets`.  On an exact
 * `random.Random` it replays the RNG's draws from its two primitives,
 * as CPython's `randrange`, `choice` and `expovariate` make them.  It
 * calls into Python for the workload's request chunk, its request size
 * unless the workload declares `fixed_request_size`, an arrival
 * process, any other RNG, and any of its own methods, `build_packets`,
 * `send`, `release` or `acquire` that Python would not resolve to the C
 * method.
 *
 * The recorder and the workload draws.  `RecorderCore` is the C twin of
 * metrics/latency.py's `_RecorderCore` (`note_sent` and `record`), which
 * stays the reference; `LatencyRecorder` subclasses whichever is live,
 * and the client calls its C methods directly where Python would
 * resolve the names to them.  `expovariate_chunk` and `payloads` are
 * the C twins of workloads/chunks.py's functions: a chunk of service
 * times replayed from an exact `random.Random`'s `random()`, and
 * request payloads built without their `__init__`.
 *
 * A packet acquired through a Python-level `acquire` from C code (a
 * clone copy, a server response, a client request) carries a site tag,
 * `acquire_site()`, which the sanitizer's ledger records in place of a
 * Python frame.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

#if PY_VERSION_HEX >= 0x030D0000
#define _PyObject_LookupAttr PyObject_GetOptionalAttr
#endif

/* Configured once from Python via _ccore.configure(...). */
static PyObject *g_sched_error = NULL;    /* SchedulingError class */
static PyObject *g_network_error = NULL;  /* NetworkError class */
static PyObject *g_port_error = NULL;     /* PortError class */
static PyObject *g_stage_access_error = NULL;  /* StageAccessError class */
static PyObject *g_experiment_error = NULL;    /* ExperimentError class */

/* The C code that is acquiring a packet through a Python-level
 * `acquire` (a wrapper, the sanitizer's override), as the sanitizer's
 * `file:site` tag; NULL when no C acquirer is on the stack.  The
 * sanitizer reads it through `acquire_site()`, since the nearest
 * Python frame of a C acquire is whatever ran the C code. */
static const char *g_acquire_site = NULL;

typedef struct {
    PyObject_HEAD
    long long now;
    long long seq;
    long long event_count;
    PyObject *heap;          /* list, heapq invariant */
    PyObject *tail;          /* list, sorted; live region starts at tail_head */
    Py_ssize_t tail_head;
} SimObject;

/* ------------------------------------------------------------------ */
/* Entry helpers                                                       */
/* ------------------------------------------------------------------ */

/* Extract (time, seq) from an entry tuple.  Returns 0 on success. */
static int
entry_key(PyObject *entry, long long *time, long long *seq)
{
    PyObject *t, *s;
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 4) {
        PyErr_SetString(PyExc_TypeError, "scheduler entry is not a 4-tuple");
        return -1;
    }
    t = PyTuple_GET_ITEM(entry, 0);
    s = PyTuple_GET_ITEM(entry, 1);
    *time = PyLong_AsLongLong(t);
    if (*time == -1 && PyErr_Occurred())
        return -1;
    *seq = PyLong_AsLongLong(s);
    if (*seq == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* entry a < entry b in (time, seq) order.  Returns -1 on error. */
static int
entry_lt(PyObject *a, PyObject *b)
{
    long long ta, sa, tb, sb;
    if (entry_key(a, &ta, &sa) < 0 || entry_key(b, &tb, &sb) < 0)
        return -1;
    if (ta != tb)
        return ta < tb;
    return sa < sb;
}

/* ------------------------------------------------------------------ */
/* Heap lane (heapq-compatible sift on a PyList)                       */
/* ------------------------------------------------------------------ */

static int
heap_siftdown(PyObject *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    /* heapq._siftdown: move heap[pos] toward the root. */
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_INCREF(newitem);
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        PyObject *parent = PyList_GET_ITEM(heap, parentpos);
        int lt = entry_lt(newitem, parent);
        if (lt < 0) {
            Py_DECREF(newitem);
            return -1;
        }
        if (!lt)
            break;
        Py_INCREF(parent);
        PyList_SetItem(heap, pos, parent);
        pos = parentpos;
    }
    PyList_SetItem(heap, pos, newitem);
    return 0;
}

static int
heap_siftup(PyObject *heap, Py_ssize_t pos)
{
    /* heapq._siftup: move the (possibly out of place) heap[pos] down
     * to a leaf, then back up. */
    Py_ssize_t endpos = PyList_GET_SIZE(heap);
    Py_ssize_t startpos = pos;
    PyObject *newitem = PyList_GET_ITEM(heap, pos);
    Py_ssize_t childpos = 2 * pos + 1;
    Py_INCREF(newitem);
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos) {
            int lt = entry_lt(PyList_GET_ITEM(heap, childpos),
                              PyList_GET_ITEM(heap, rightpos));
            if (lt < 0) {
                Py_DECREF(newitem);
                return -1;
            }
            if (!lt)
                childpos = rightpos;
        }
        PyObject *child = PyList_GET_ITEM(heap, childpos);
        Py_INCREF(child);
        PyList_SetItem(heap, pos, child);
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    PyList_SetItem(heap, pos, newitem);
    return heap_siftdown(heap, startpos, pos);
}

static int
heap_push(PyObject *heap, PyObject *entry)
{
    if (PyList_Append(heap, entry) < 0)
        return -1;
    return heap_siftdown(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* Pop the heap minimum.  Returns a new reference, or NULL on error.
 * The heap must be non-empty. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t size = PyList_GET_SIZE(heap);
    PyObject *last, *min;
    last = PyList_GET_ITEM(heap, size - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, size - 1, size, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (size == 1)
        return last;  /* was the only item */
    min = PyList_GET_ITEM(heap, 0);
    Py_INCREF(min);
    PyList_SetItem(heap, 0, last);  /* steals last */
    if (heap_siftup(heap, 0) < 0) {
        Py_DECREF(min);
        return NULL;
    }
    return min;
}

/* ------------------------------------------------------------------ */
/* Tail lane (sorted list with a C-side head index)                    */
/* ------------------------------------------------------------------ */

/* Drop the consumed [0, tail_head) prefix when it dominates, so memory
 * stays bounded and Python-side `tail[-1]` peeks never see a None.
 * Amortised O(1) per consumed entry. */
static int
tail_compact(SimObject *self)
{
    Py_ssize_t size = PyList_GET_SIZE(self->tail);
    if (self->tail_head == size) {
        if (size && PyList_SetSlice(self->tail, 0, size, NULL) < 0)
            return -1;
        self->tail_head = 0;
        return 0;
    }
    if (self->tail_head >= 64 && self->tail_head * 2 >= size) {
        if (PyList_SetSlice(self->tail, 0, self->tail_head, NULL) < 0)
            return -1;
        self->tail_head = 0;
    }
    return 0;
}

/* Pop the live tail head.  Returns a new reference; never NULL unless
 * an internal error is set.  The live region must be non-empty. */
static PyObject *
tail_pop(SimObject *self)
{
    PyObject *entry = PyList_GET_ITEM(self->tail, self->tail_head);
    Py_INCREF(entry);
    Py_INCREF(Py_None);
    PyList_SetItem(self->tail, self->tail_head, Py_None);
    self->tail_head++;
    if (tail_compact(self) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    return entry;
}

/* Push an entry back onto the tail front (horizon-crossing restore). */
static int
tail_push_front(SimObject *self, PyObject *entry)
{
    if (self->tail_head > 0) {
        self->tail_head--;
        Py_INCREF(entry);
        PyList_SetItem(self->tail, self->tail_head, entry);
        return 0;
    }
    return PyList_Insert(self->tail, 0, entry);
}

/* ------------------------------------------------------------------ */
/* Scheduling                                                          */
/* ------------------------------------------------------------------ */

/* Route a freshly-built entry to its lane.  Steals no references;
 * `time` must equal the entry's own timestamp. */
static int
lane_push(SimObject *self, PyObject *entry, long long time)
{
    Py_ssize_t size = PyList_GET_SIZE(self->tail);
    if (size > self->tail_head) {
        PyObject *last = PyList_GET_ITEM(self->tail, size - 1);
        long long last_time;
        if (!PyTuple_CheckExact(last) || PyTuple_GET_SIZE(last) != 4) {
            PyErr_SetString(PyExc_TypeError,
                            "scheduler entry is not a 4-tuple");
            return -1;
        }
        last_time = PyLong_AsLongLong(PyTuple_GET_ITEM(last, 0));
        if (last_time == -1 && PyErr_Occurred())
            return -1;
        /* seq is globally increasing, so a time tie always sorts the
         * new entry after the tail's last — time-only compare. */
        if (time >= last_time)
            return PyList_Append(self->tail, entry);
        return heap_push(self->heap, entry);
    }
    return PyList_Append(self->tail, entry);
}

/* Build the 4-tuple entry and push it.  `fn` and `args` (a tuple) are
 * borrowed. */
static int
schedule_entry(SimObject *self, PyObject *time_obj, long long time,
               PyObject *fn, PyObject *args)
{
    long long seq = self->seq + 1;
    PyObject *entry, *seq_obj;
    self->seq = seq;
    seq_obj = PyLong_FromLongLong(seq);
    if (seq_obj == NULL)
        return -1;
    entry = PyTuple_New(4);
    if (entry == NULL) {
        Py_DECREF(seq_obj);
        return -1;
    }
    Py_INCREF(time_obj);
    PyTuple_SET_ITEM(entry, 0, time_obj);
    PyTuple_SET_ITEM(entry, 1, seq_obj);
    Py_INCREF(fn);
    PyTuple_SET_ITEM(entry, 2, fn);
    Py_INCREF(args);
    PyTuple_SET_ITEM(entry, 3, args);
    if (lane_push(self, entry, time) < 0) {
        Py_DECREF(entry);
        return -1;
    }
    Py_DECREF(entry);
    return 0;
}

/* Shared argument unpacking for the two scheduling methods:
 * (when, fn, *args).  Fills *time, *time_obj (new ref) and *extra
 * (new ref, the packed varargs tuple). */
static int
parse_schedule_args(PyObject *const *args, Py_ssize_t nargs,
                    const char *name, PyObject **time_obj,
                    long long *time, PyObject **fn, PyObject **extra)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() requires a time and a callable", name);
        return -1;
    }
    *time = PyLong_AsLongLong(args[0]);
    if (*time == -1 && PyErr_Occurred())
        return -1;
    *time_obj = args[0];
    Py_INCREF(*time_obj);
    *fn = args[1];
    if (nargs == 2) {
        *extra = PyTuple_New(0);  /* the shared empty-tuple singleton */
    }
    else {
        Py_ssize_t i, n = nargs - 2;
        *extra = PyTuple_New(n);
        if (*extra != NULL) {
            for (i = 0; i < n; i++) {
                PyObject *a = args[2 + i];
                Py_INCREF(a);
                PyTuple_SET_ITEM(*extra, i, a);
            }
        }
    }
    if (*extra == NULL) {
        Py_CLEAR(*time_obj);
        return -1;
    }
    return 0;
}

static PyObject *
sim_call_at(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *time_obj, *fn, *extra;
    long long time;
    int rc;
    if (parse_schedule_args(args, nargs, "call_at",
                            &time_obj, &time, &fn, &extra) < 0)
        return NULL;
    if (time < self->now) {
        PyErr_Format(g_sched_error,
                     "cannot schedule at t=%lld which is before now=%lld",
                     time, self->now);
        Py_DECREF(time_obj);
        Py_DECREF(extra);
        return NULL;
    }
    rc = schedule_entry(self, time_obj, time, fn, extra);
    Py_DECREF(time_obj);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
sim_call_after(SimObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *time_obj, *fn, *extra;
    long long delay, time;
    int rc;
    if (parse_schedule_args(args, nargs, "call_after",
                            &time_obj, &delay, &fn, &extra) < 0)
        return NULL;
    Py_DECREF(time_obj);  /* delay object; the entry stores now+delay */
    if (delay < 0) {
        PyErr_Format(g_sched_error, "negative delay %lld", delay);
        Py_DECREF(extra);
        return NULL;
    }
    time = self->now + delay;
    time_obj = PyLong_FromLongLong(time);
    if (time_obj == NULL) {
        Py_DECREF(extra);
        return NULL;
    }
    rc = schedule_entry(self, time_obj, time, fn, extra);
    Py_DECREF(time_obj);
    Py_DECREF(extra);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Execution                                                           */
/* ------------------------------------------------------------------ */

/* Dispatch one entry: advance the clock and invoke the callback.
 * Caller owns `entry` and keeps ownership.  Returns 0, or -1 with an
 * exception set. */
static int
dispatch(SimObject *self, PyObject *entry, long long time)
{
    PyObject *args = PyTuple_GET_ITEM(entry, 3);
    PyObject *res;
    self->now = time;
    res = PyObject_Call(PyTuple_GET_ITEM(entry, 2), args, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The run loop.  Mirrors the three Python loop shapes exactly
 * (drain / horizon-only / max_events).  Returns -1 with an exception
 * set on callback error; *executed is always valid. */
static int
run_inner(SimObject *self, int has_until, long long until,
          int has_max, long long max_events, long long *executed)
{
    for (;;) {
        PyObject *entry;
        long long time, seq;
        int from_tail;
        Py_ssize_t hsize, tsize;

        if (has_max && *executed >= max_events)
            return 0;

        tsize = PyList_GET_SIZE(self->tail);
        hsize = PyList_GET_SIZE(self->heap);
        if (self->tail_head < tsize) {
            if (hsize) {
                int lt = entry_lt(PyList_GET_ITEM(self->heap, 0),
                                  PyList_GET_ITEM(self->tail, self->tail_head));
                if (lt < 0)
                    return -1;
                from_tail = !lt;
            }
            else
                from_tail = 1;
        }
        else if (hsize)
            from_tail = 0;
        else {
            if (has_until && until > self->now)
                self->now = until;
            return 0;
        }

        if (has_max) {
            /* Peek-then-pop shape: a horizon-crossing entry is left
             * in place, matching the Python max_events loop. */
            entry = from_tail ? PyList_GET_ITEM(self->tail, self->tail_head)
                              : PyList_GET_ITEM(self->heap, 0);
            Py_INCREF(entry);
            if (entry_key(entry, &time, &seq) < 0) {
                Py_DECREF(entry);
                return -1;
            }
            if (has_until && time > until) {
                Py_DECREF(entry);
                self->now = until;
                return 0;
            }
            {
                PyObject *popped = from_tail ? tail_pop(self)
                                             : heap_pop(self->heap);
                if (popped == NULL) {
                    Py_DECREF(entry);
                    return -1;
                }
                Py_DECREF(popped);
            }
        }
        else {
            /* Pop-first shape (drain and horizon-only loops). */
            entry = from_tail ? tail_pop(self) : heap_pop(self->heap);
            if (entry == NULL)
                return -1;
            if (entry_key(entry, &time, &seq) < 0) {
                Py_DECREF(entry);
                return -1;
            }
            if (has_until && time > until) {
                /* Past the horizon: restore it for a later run(). */
                int rc = from_tail ? tail_push_front(self, entry)
                                   : heap_push(self->heap, entry);
                Py_DECREF(entry);
                if (rc < 0)
                    return -1;
                self->now = until;
                return 0;
            }
        }

        (*executed)++;
        if (dispatch(self, entry, time) < 0) {
            Py_DECREF(entry);
            return -1;
        }
        Py_DECREF(entry);
    }
}

static PyObject *
sim_run(SimObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    long long until = 0, max_events = 0, executed = 0;
    int has_until, has_max, rc;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    has_until = until_obj != Py_None;
    has_max = max_obj != Py_None;
    if (has_until) {
        until = PyLong_AsLongLong(until_obj);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    if (has_max) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    rc = run_inner(self, has_until, until, has_max, max_events, &executed);
    self->event_count += executed;
    if (rc < 0)
        return NULL;
    return PyLong_FromLongLong(executed);
}

/* Timestamp of the earlier of the two lane heads; nothing is popped. */
static PyObject *
sim_peek(SimObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *head = NULL;
    if (self->tail_head < PyList_GET_SIZE(self->tail))
        head = PyList_GET_ITEM(self->tail, self->tail_head);
    if (PyList_GET_SIZE(self->heap)) {
        PyObject *hh = PyList_GET_ITEM(self->heap, 0);
        int lt = head == NULL ? 1 : entry_lt(hh, head);
        if (lt < 0)
            return NULL;
        if (lt)
            head = hh;
    }
    if (head == NULL)
        Py_RETURN_NONE;
    Py_INCREF(PyTuple_GET_ITEM(head, 0));
    return PyTuple_GET_ITEM(head, 0);
}

/* ------------------------------------------------------------------ */
/* Type plumbing                                                       */
/* ------------------------------------------------------------------ */

static int
sim_init(SimObject *self, PyObject *args, PyObject *kwargs)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwargs && PyDict_GET_SIZE(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "Simulator() takes no arguments");
        return -1;
    }
    self->now = 0;
    self->seq = 0;
    self->event_count = 0;
    self->tail_head = 0;
    Py_CLEAR(self->heap);
    Py_CLEAR(self->tail);
    self->heap = PyList_New(0);
    self->tail = PyList_New(0);
    if (self->heap == NULL || self->tail == NULL)
        return -1;
    return 0;
}

static int
sim_traverse(SimObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->heap);
    Py_VISIT(self->tail);
    return 0;
}

static int
sim_clear(SimObject *self)
{
    Py_CLEAR(self->heap);
    Py_CLEAR(self->tail);
    return 0;
}

static void
sim_dealloc(SimObject *self)
{
    PyObject_GC_UnTrack(self);
    sim_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
sim_repr(SimObject *self)
{
    Py_ssize_t pending = PyList_GET_SIZE(self->heap)
                         + PyList_GET_SIZE(self->tail) - self->tail_head;
    return PyUnicode_FromFormat("<Simulator now=%lld pending=%zd>",
                                self->now, pending);
}

static PyObject *
sim_get_pending(SimObject *self, void *closure)
{
    return PyLong_FromSsize_t(PyList_GET_SIZE(self->heap)
                              + PyList_GET_SIZE(self->tail)
                              - self->tail_head);
}

static PyObject *
sim_get_event_count(SimObject *self, void *closure)
{
    return PyLong_FromLongLong(self->event_count);
}

static PyMemberDef sim_members[] = {
    {"now", T_LONGLONG, offsetof(SimObject, now), 0,
     "Current simulated time in nanoseconds."},
    {"_seq", T_LONGLONG, offsetof(SimObject, seq), 0, NULL},
    {"_event_count", T_LONGLONG, offsetof(SimObject, event_count), 0, NULL},
    {"_heap", T_OBJECT_EX, offsetof(SimObject, heap), READONLY, NULL},
    {"_tail", T_OBJECT_EX, offsetof(SimObject, tail), READONLY, NULL},
    {NULL}
};

static PyGetSetDef sim_getset[] = {
    {"pending", (getter)sim_get_pending, NULL,
     "Number of scheduled events that have not run yet.", NULL},
    {"event_count", (getter)sim_get_event_count, NULL,
     "Total number of events executed since construction.", NULL},
    {NULL}
};

static PyMethodDef sim_methods[] = {
    {"call_at", (PyCFunction)(void (*)(void))sim_call_at,
     METH_FASTCALL, "Schedule fn(*args) at absolute time ns."},
    {"call_after", (PyCFunction)(void (*)(void))sim_call_after,
     METH_FASTCALL, "Schedule fn(*args) delay ns after now."},
    {"run", (PyCFunction)(void (*)(void))sim_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run events until the queue drains or a limit is hit."},
    {"peek", (PyCFunction)sim_peek, METH_NOARGS,
     "Timestamp of the next event, or None if drained."},
    {NULL}
};

static PyTypeObject SimType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.Simulator",
    .tp_basicsize = sizeof(SimObject),
    .tp_itemsize = 0,
    .tp_dealloc = (destructor)sim_dealloc,
    .tp_repr = (reprfunc)sim_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C two-lane calendar-queue discrete-event simulator.",
    .tp_traverse = (traverseproc)sim_traverse,
    .tp_clear = (inquiry)sim_clear,
    .tp_methods = sim_methods,
    .tp_members = sim_members,
    .tp_getset = sim_getset,
    .tp_init = (initproc)sim_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Forwarding hop: shared helpers                                      */
/* ------------------------------------------------------------------ */

/* Names the packet plane, the hop and the pass read, write or call;
 * interned at module init. */
static PyObject *s_src, *s_dst, *s_sport, *s_dport, *s_size,
    *s_payload, *s_nc, *s_ingress_port, *s_recirculated, *s_created_at,
    *s_msg_type, *s_req_id, *s_grp, *s_sid, *s_state, *s_clo,
    *s_idx, *s_swid, *s_release, *s_copy, *s_acquire, *s_append, *s_pop,
    *s_packet_type, *s_down, *s_loss_probability, *s_send,
    *s_serialization_ns, *s_call_at, *s_now, *s_handle, *s_emit, *s_name,
    *s_rx, *s_rx_dropped_down, *s_dropped_by_program, *s_no_route, *s_tx,
    *s_dropped_down, *s_recirculate, *s_counts, *s_nc_unknown_server,
    *s_nc_unknown_group, *s_nc_cloned, *s_nc_jsq_second_choice,
    *s_nc_filtered, *s_nc_fingerprint_overwrite, *s_nc_fingerprint_insert;
static PyObject *g_zero_float = NULL;     /* 0.0, for loss_probability */
static PyObject *g_zero = NULL;           /* 0, a header field default */
static PyObject *g_one = NULL;            /* 1, the counter step */
static PyObject *g_minus_one = NULL;      /* -1, "no ingress port yet" */

static PyTypeObject DirType;

/* An unset object member reads as a missing attribute, as a slot does. */
static int
require_member(PyObject *value, const char *name)
{
    if (value != NULL)
        return 0;
    PyErr_Format(PyExc_AttributeError, "attribute '%s' is not set", name);
    return -1;
}

static int
long_attr(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    *out = PyLong_AsLongLong(value);
    Py_DECREF(value);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

/* `sim.now`, read off the struct when sim is the C engine. */
static int
sim_now_of(PyObject *sim, long long *now)
{
    if (Py_IS_TYPE(sim, &SimType)) {
        *now = ((SimObject *)sim)->now;
        return 0;
    }
    return long_attr(sim, s_now, now);
}

/* `sim.call_at(time, fn[, a0[, a1]])` (*a0* NULL: no arguments).  On
 * the C engine the entry goes straight onto the lanes, with the same
 * seq and the same before-now check `call_at` makes; any other engine
 * gets the call. */
static int
hop_call_at(PyObject *sim, long long time, PyObject *fn,
            PyObject *a0, PyObject *a1)
{
    PyObject *time_obj = PyLong_FromLongLong(time);
    int rc;
    if (time_obj == NULL)
        return -1;
    Py_INCREF(sim);
    Py_INCREF(fn);
    if (Py_IS_TYPE(sim, &SimType)) {
        SimObject *engine = (SimObject *)sim;
        PyObject *args;
        if (time < engine->now) {
            PyErr_Format(g_sched_error,
                         "cannot schedule at t=%lld which is before now=%lld",
                         time, engine->now);
            rc = -1;
        }
        else if ((args = a0 == NULL   ? PyTuple_New(0)
                         : a1 == NULL ? PyTuple_Pack(1, a0)
                                      : PyTuple_Pack(2, a0, a1)) == NULL)
            rc = -1;
        else {
            rc = schedule_entry(engine, time_obj, time, fn, args);
            Py_DECREF(args);
        }
    }
    else {
        PyObject *stack[5] = {sim, time_obj, fn, a0, a1};
        PyObject *res = PyObject_VectorcallMethod(
            s_call_at, stack, a0 == NULL ? 3 : a1 == NULL ? 4 : 5, NULL);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(fn);
    Py_DECREF(sim);
    Py_DECREF(time_obj);
    return rc;
}

/* `counts[key] += 1` on a Counter's dict (a defaultdict(int)).  A
 * missing key goes through the mapping's own lookup, so the default
 * comes from `__missing__` exactly as the Python statement gets it. */
static int
count_incr(PyObject *counts, PyObject *key)
{
    PyObject *cur, *next;
    int rc;
    cur = PyDict_Check(counts) ? PyDict_GetItemWithError(counts, key) : NULL;
    if (cur != NULL)
        Py_INCREF(cur);
    else if (PyErr_Occurred() || (cur = PyObject_GetItem(counts, key)) == NULL)
        return -1;
    next = PyNumber_Add(cur, g_one);
    Py_DECREF(cur);
    if (next == NULL)
        return -1;
    rc = PyObject_SetItem(counts, key, next);
    Py_DECREF(next);
    return rc;
}

/* `link.down or link.loss_probability > 0.0`: 1 when the link can drop
 * the packet (it then takes `Link.send`), 0 when not, -1 on error. */
static int
link_can_drop(PyObject *link)
{
    PyObject *value = PyObject_GetAttr(link, s_down);
    int r;
    if (value == NULL)
        return -1;
    r = PyObject_IsTrue(value);
    Py_DECREF(value);
    if (r != 0)
        return r;
    value = PyObject_GetAttr(link, s_loss_probability);
    if (value == NULL)
        return -1;
    if (PyFloat_CheckExact(value))
        r = PyFloat_AS_DOUBLE(value) > 0.0;
    else
        r = PyObject_RichCompareBool(value, g_zero_float, Py_GT);
    Py_DECREF(value);
    return r;
}

/* `link.send(packet, sender)`. */
static int
link_send(PyObject *link, PyObject *packet, PyObject *sender)
{
    PyObject *stack[3] = {link, packet, sender};
    PyObject *res = PyObject_VectorcallMethod(s_send, stack, 3, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Packet plane: PacketCore, PoolCore and HeaderCore                   */
/* ------------------------------------------------------------------ */

/* net/packet.py's `Packet` and `PacketPool` and core/header.py's
 * `NetCloneHeader` subclass these when the C core is live; the
 * pure-Python `_PacketCore`/`_PoolCore`/`_HeaderCore` in those modules
 * stay the reference.  Every Python-visible field is a T_OBJECT_EX
 * member, so the interpreter reads and writes it as it would a
 * `__slots__` field, and the hop and the pass read it off the struct. */

typedef struct {
    PyObject_HEAD
    PyObject *uid, *src, *dst, *sport, *dport, *size, *payload, *nc,
        *ingress_port, *recirculated, *created_at, *pool;
    char freed;
} PacketObject;

typedef struct {
    PyObject_HEAD
    PyObject *free;          /* `_free`: the LIFO free list */
    long long next_uid;
    long long allocated;
    long long released;
} PoolObject;

typedef struct {
    PyObject_HEAD
    PyObject *msg_type, *req_id, *grp, *sid, *state, *clo, *idx, *swid;
} HeaderObject;

static PyTypeObject PacketType, PoolType, HeaderType;

/* The field's slot on the struct when *obj* is one of the core types,
 * NULL for any other object (which then goes by attribute). */
#define FIELD_SLOT(obj, Type, Struct, field) \
    (PyObject_TypeCheck((obj), &Type) ? &((Struct *)(obj))->field : NULL)
#define GET_PACKET(obj, f) \
    get_field((obj), FIELD_SLOT((obj), PacketType, PacketObject, f), s_##f)
#define SET_PACKET(obj, f, v) \
    set_field((obj), FIELD_SLOT((obj), PacketType, PacketObject, f), s_##f, (v))
#define GET_HEADER(obj, f) \
    get_field((obj), FIELD_SLOT((obj), HeaderType, HeaderObject, f), s_##f)
#define SET_HEADER(obj, f, v) \
    set_field((obj), FIELD_SLOT((obj), HeaderType, HeaderObject, f), s_##f, (v))

/* Each of *n* fields must be set; the first unset one raises as an
 * unset slot does. */
static int
require_fields(PyObject *const *fields, PyObject *const *names, int n)
{
    int i;
    for (i = 0; i < n; i++) {
        if (fields[i] == NULL) {
            PyErr_Format(PyExc_AttributeError, "attribute '%U' is not set",
                         names[i]);
            return -1;
        }
    }
    return 0;
}

/* `obj.<name>`, a new reference. */
static PyObject *
get_field(PyObject *obj, PyObject **slot, PyObject *name)
{
    if (slot == NULL)
        return PyObject_GetAttr(obj, name);
    if (require_fields(slot, &name, 1) < 0)
        return NULL;
    Py_INCREF(*slot);
    return *slot;
}

/* `obj.<name> = value`. */
static int
set_field(PyObject *obj, PyObject **slot, PyObject *name, PyObject *value)
{
    if (slot == NULL)
        return PyObject_SetAttr(obj, name, value);
    Py_INCREF(value);
    Py_XSETREF(*slot, value);
    return 0;
}

/* 0 when an entry in obj's instance dict shadows the class attribute
 * `<name>`, a method and so not a data descriptor; 1 otherwise. */
static int
unshadowed(PyObject *obj, PyObject *name)
{
    PyObject *dict;
    int shadowed;
    if (Py_TYPE(obj)->tp_dictoffset == 0)
        return 1;
    if ((dict = PyObject_GenericGetDict(obj, NULL)) == NULL) {
        PyErr_Clear();
        return 0;
    }
    shadowed = PyDict_GET_SIZE(dict) != 0 && PyDict_Contains(dict, name) != 0;
    Py_DECREF(dict);
    PyErr_Clear();
    return !shadowed;
}

/* 1 when `obj.<name>` resolves to the C method *meth*, so calling it
 * directly is the call Python would make; 0 when it resolves to
 * anything else (an override, a tracer's class-level wrapper, an
 * instance attribute of that name). */
static int
resolves_to(PyObject *obj, PyObject *name, PyCFunction meth)
{
    PyTypeObject *type = Py_TYPE(obj);
    PyObject *descr;
    if (type->tp_getattro != PyObject_GenericGetAttr)
        return 0;
    descr = _PyType_Lookup(type, name);
    return descr != NULL && Py_IS_TYPE(descr, &PyMethodDescr_Type)
           && ((PyMethodDescrObject *)descr)->d_method->ml_meth == meth
           && unshadowed(obj, name);
}

/* 1 when `obj.<name>` resolves to the Python function *func* (NULL:
 * none registered) as found on obj's type, so replaying *func* is the
 * call Python would make; 0 for anything else, as `resolves_to`. */
static int
resolves_to_function(PyObject *obj, PyObject *name, PyObject *func)
{
    PyTypeObject *type = Py_TYPE(obj);
    return func != NULL && type->tp_getattro == PyObject_GenericGetAttr
           && _PyType_Lookup(type, name) == func && unshadowed(obj, name);
}

/* `obj.<name>()`: the C method *meth* directly when Python would
 * resolve the name to it, else the call Python would make. */
static PyObject *
call_method0(PyObject *obj, PyObject *name, PyCFunction meth)
{
    if (resolves_to(obj, name, meth))
        return meth(obj, NULL);
    return PyObject_CallMethodNoArgs(obj, name);
}

/* Bind one keyword argument to its parameter in *out*. */
static int
bind_keyword(const char *fname, PyObject *const *names, Py_ssize_t nparams,
             PyObject *key, PyObject *value, PyObject **out)
{
    Py_ssize_t i;
    for (i = 0; i < nparams && names[i] != key; i++)
        ;
    if (i == nparams && PyUnicode_Check(key)) {
        for (i = 0; i < nparams && PyUnicode_Compare(names[i], key) != 0; i++)
            ;
    }
    if (i == nparams) {
        PyErr_Format(PyExc_TypeError,
                     "%s() got an unexpected keyword argument '%S'", fname, key);
        return -1;
    }
    if (out[i] != NULL) {
        PyErr_Format(PyExc_TypeError,
                     "%s() got multiple values for argument '%U'", fname, key);
        return -1;
    }
    out[i] = value;
    return 0;
}

/* Bind positional *args*, then keywords (a vectorcall's *kwnames* with
 * their values after the positionals, or a *kwdict*), to *nparams*
 * parameters of which the first *nrequired* are required.  *out*
 * (borrowed references) keeps the caller's defaults where unbound and
 * must start NULL for the required ones. */
static int
bind_args(const char *fname, PyObject *const *names, Py_ssize_t nparams,
          Py_ssize_t nrequired, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames, PyObject *kwdict, PyObject **out)
{
    PyObject *bound[16] = {NULL};
    Py_ssize_t i;
    if (nargs > nparams) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %zd positional arguments (%zd given)",
                     fname, nparams, nargs);
        return -1;
    }
    for (i = 0; i < nargs; i++)
        bound[i] = args[i];
    if (kwnames != NULL) {
        for (i = 0; i < PyTuple_GET_SIZE(kwnames); i++) {
            if (bind_keyword(fname, names, nparams,
                             PyTuple_GET_ITEM(kwnames, i), args[nargs + i],
                             bound) < 0)
                return -1;
        }
    }
    if (kwdict != NULL) {
        PyObject *key, *value;
        Py_ssize_t pos = 0;
        while (PyDict_Next(kwdict, &pos, &key, &value)) {
            if (bind_keyword(fname, names, nparams, key, value, bound) < 0)
                return -1;
        }
    }
    for (i = 0; i < nparams; i++) {
        if (bound[i] != NULL)
            out[i] = bound[i];
        else if (i < nrequired) {
            PyErr_Format(PyExc_TypeError,
                         "%s() missing required argument '%U'", fname,
                         names[i]);
            return -1;
        }
    }
    return 0;
}

/* --- HeaderCore --------------------------------------------------- */

enum { N_HEADER_FIELDS = 8 };
static PyObject *header_names[N_HEADER_FIELDS];

/* The eight fields, in wire order, as one array. */
static PyObject **
header_fields(HeaderObject *self)
{
    return &self->msg_type;
}

/* `NetCloneHeader(msg_type, req_id=0, grp=0, sid=0, state=0, clo=0,
 * idx=0, swid=0)`. */
static PyObject *
header_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyObject *values[N_HEADER_FIELDS];
    HeaderObject *self;
    int i;
    values[0] = NULL;
    for (i = 1; i < N_HEADER_FIELDS; i++)
        values[i] = g_zero;
    if (bind_args("NetCloneHeader", header_names, N_HEADER_FIELDS, 1,
                  &PyTuple_GET_ITEM(args, 0), PyTuple_GET_SIZE(args), NULL,
                  kwargs, values) < 0
        || (self = (HeaderObject *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    for (i = 0; i < N_HEADER_FIELDS; i++) {
        Py_INCREF(values[i]);
        header_fields(self)[i] = values[i];
    }
    return (PyObject *)self;
}

/* `nc.copy()`: an independent header of the same type. */
static PyObject *
header_copy(HeaderObject *self, PyObject *Py_UNUSED(ignored))
{
    PyTypeObject *type = Py_TYPE(self);
    HeaderObject *copy;
    int i;
    if (require_fields(header_fields(self), header_names, N_HEADER_FIELDS) < 0)
        return NULL;
    if ((copy = (HeaderObject *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    for (i = 0; i < N_HEADER_FIELDS; i++) {
        Py_INCREF(header_fields(self)[i]);
        header_fields(copy)[i] = header_fields(self)[i];
    }
    return (PyObject *)copy;
}

static int
header_traverse(HeaderObject *self, visitproc visit, void *arg)
{
    int i;
    for (i = 0; i < N_HEADER_FIELDS; i++)
        Py_VISIT(header_fields(self)[i]);
    return 0;
}

static int
header_clear(HeaderObject *self)
{
    int i;
    for (i = 0; i < N_HEADER_FIELDS; i++)
        Py_CLEAR(header_fields(self)[i]);
    return 0;
}

static void
header_dealloc(HeaderObject *self)
{
    PyObject_GC_UnTrack(self);
    header_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

#define HEADER_MEMBER(name) \
    {#name, T_OBJECT_EX, offsetof(HeaderObject, name), 0, NULL}
static PyMemberDef header_members[] = {
    HEADER_MEMBER(msg_type), HEADER_MEMBER(req_id), HEADER_MEMBER(grp),
    HEADER_MEMBER(sid), HEADER_MEMBER(state), HEADER_MEMBER(clo),
    HEADER_MEMBER(idx), HEADER_MEMBER(swid),
    {NULL}
};
#undef HEADER_MEMBER

static PyMethodDef header_methods[] = {
    {"copy", (PyCFunction)header_copy, METH_NOARGS,
     "An independent copy (headers are mutated by the switch)."},
    {NULL}
};

static PyTypeObject HeaderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.HeaderCore",
    .tp_basicsize = sizeof(HeaderObject),
    .tp_dealloc = (destructor)header_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of core.header.NetCloneHeader: the eight fields and copy.",
    .tp_traverse = (traverseproc)header_traverse,
    .tp_clear = (inquiry)header_clear,
    .tp_methods = header_methods,
    .tp_members = header_members,
    .tp_new = header_new,
};

/* --- PacketCore --------------------------------------------------- */

enum { N_PACKET_FIELDS = 12 };

/* The object fields, `uid` through `pool`, as one array. */
static PyObject **
packet_fields(PacketObject *self)
{
    return &self->uid;
}

/* Parameters of `PacketPool.acquire`, in order. */
enum { A_SRC, A_DST, A_SPORT, A_DPORT, A_SIZE, A_PAYLOAD, A_NC, A_CREATED_AT,
       N_ACQUIRE_ARGS };
static PyObject *acquire_names[N_ACQUIRE_ARGS];

/* Start a packet life: the fields `acquire` sets, from *values* (an
 * `acquire` argument list) and *uid* (stolen). */
static void
packet_fill(PacketObject *p, PyObject *uid, PyObject *const *values)
{
    PyObject **fields[N_ACQUIRE_ARGS] = {
        &p->src, &p->dst, &p->sport, &p->dport, &p->size, &p->payload,
        &p->nc, &p->created_at};
    int i;
    Py_XSETREF(p->uid, uid);
    for (i = 0; i < N_ACQUIRE_ARGS; i++) {
        Py_INCREF(values[i]);
        Py_XSETREF(*fields[i], values[i]);
    }
    Py_INCREF(g_minus_one);
    Py_XSETREF(p->ingress_port, g_minus_one);
    Py_INCREF(Py_False);
    Py_XSETREF(p->recirculated, Py_False);
    p->freed = 0;
}

/* `packet.release()`: idempotent; drops payload and header, then
 * `pool._free.append(packet)` and `pool.released += 1`. */
static PyObject *
packet_release(PacketObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *pool, *free;
    int rc;
    if (self->freed)
        Py_RETURN_NONE;
    self->freed = 1;
    Py_INCREF(Py_None);
    Py_XSETREF(self->payload, Py_None);
    Py_INCREF(Py_None);
    Py_XSETREF(self->nc, Py_None);
    pool = self->pool;
    if (require_member(pool, "pool") < 0)
        return NULL;
    if (!PyObject_TypeCheck(pool, &PoolType)) {
        PyErr_Format(PyExc_TypeError, "packet pool is not a PacketPool: %.200s",
                     Py_TYPE(pool)->tp_name);
        return NULL;
    }
    free = ((PoolObject *)pool)->free;
    if (require_member(free, "_free") < 0)
        return NULL;
    Py_INCREF(pool);
    Py_INCREF(free);
    if (PyList_CheckExact(free))
        rc = PyList_Append(free, (PyObject *)self);
    else {
        /* A list subclass (the sanitizer's ledger list) sees the append. */
        PyObject *res = PyObject_CallMethodOneArg(free, s_append,
                                                  (PyObject *)self);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    if (rc == 0)
        ((PoolObject *)pool)->released += 1;
    Py_DECREF(free);
    Py_DECREF(pool);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* `packet.release()`, so a wrapped release sees it. */
static int
release_packet(PyObject *packet)
{
    PyObject *res = call_method0(packet, s_release,
                                 (PyCFunction)packet_release);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

static PyObject *pool_acquire_values(PoolObject *self, PyObject *const *values);
static PyObject *pool_acquire(PoolObject *self, PyObject *const *args,
                              Py_ssize_t nargs, PyObject *kwnames);

/* `pool.acquire(*values)`: the C acquire directly when Python would
 * resolve the name to it, else the call Python would make, so an
 * override or a wrapper sees the acquire. */
static PyObject *
acquire_from(PyObject *pool, PyObject *const *values)
{
    PyObject *stack[N_ACQUIRE_ARGS + 1];
    if (PyObject_TypeCheck(pool, &PoolType)
        && resolves_to(pool, s_acquire,
                       (PyCFunction)(void (*)(void))pool_acquire))
        return pool_acquire_values((PoolObject *)pool, values);
    stack[0] = pool;
    memcpy(stack + 1, values, N_ACQUIRE_ARGS * sizeof(PyObject *));
    return PyObject_VectorcallMethod(s_acquire, stack, N_ACQUIRE_ARGS + 1,
                                     NULL);
}

/* `packet.copy()`: a fresh life from the packet's pool with the same
 * addressing, size, payload and send time, clean switch metadata and
 * a copy of the header.  The header's `copy` and the pool's `acquire`
 * resolve as Python would resolve them, so an override or a wrapper
 * sees the copy. */
static PyObject *
packet_copy(PacketObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *values[N_ACQUIRE_ARGS] = {
        self->src, self->dst, self->sport, self->dport, self->size,
        self->payload, self->nc, self->created_at};
    PyObject *pool = self->pool, *nc, *copy;
    int i;
    if (require_fields(values, acquire_names, N_ACQUIRE_ARGS) < 0
        || require_member(pool, "pool") < 0)
        return NULL;
    Py_INCREF(self);
    Py_INCREF(pool);
    for (i = 0; i < N_ACQUIRE_ARGS; i++)
        Py_INCREF(values[i]);
    nc = values[A_NC] == Py_None
             ? Py_NewRef(Py_None)
             : call_method0(values[A_NC], s_copy, (PyCFunction)header_copy);
    copy = NULL;
    if (nc != NULL) {
        Py_SETREF(values[A_NC], nc);
        copy = acquire_from(pool, values);
    }
    for (i = 0; i < N_ACQUIRE_ARGS; i++)
        Py_DECREF(values[i]);
    Py_DECREF(pool);
    Py_DECREF(self);
    return copy;
}

static int
packet_traverse(PacketObject *self, visitproc visit, void *arg)
{
    int i;
    for (i = 0; i < N_PACKET_FIELDS; i++)
        Py_VISIT(packet_fields(self)[i]);
    return 0;
}

static int
packet_clear(PacketObject *self)
{
    int i;
    for (i = 0; i < N_PACKET_FIELDS; i++)
        Py_CLEAR(packet_fields(self)[i]);
    return 0;
}

static void
packet_dealloc(PacketObject *self)
{
    PyObject_GC_UnTrack(self);
    packet_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

#define PACKET_MEMBER(name) \
    {#name, T_OBJECT_EX, offsetof(PacketObject, name), 0, NULL}
static PyMemberDef packet_members[] = {
    PACKET_MEMBER(uid), PACKET_MEMBER(src), PACKET_MEMBER(dst),
    PACKET_MEMBER(sport), PACKET_MEMBER(dport), PACKET_MEMBER(size),
    PACKET_MEMBER(payload), PACKET_MEMBER(nc), PACKET_MEMBER(ingress_port),
    PACKET_MEMBER(recirculated), PACKET_MEMBER(created_at),
    PACKET_MEMBER(pool),
    {"_freed", T_BOOL, offsetof(PacketObject, freed), 0, NULL},
    {NULL}
};
#undef PACKET_MEMBER

static PyMethodDef packet_methods[] = {
    {"release", (PyCFunction)packet_release, METH_NOARGS,
     "Return this packet to its pool (idempotent)."},
    {"copy", (PyCFunction)packet_copy, METH_NOARGS,
     "A copy with a fresh uid, clean switch metadata and its own header."},
    {NULL}
};

static PyTypeObject PacketType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.PacketCore",
    .tp_basicsize = sizeof(PacketObject),
    .tp_dealloc = (destructor)packet_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of net.packet.Packet: the fields, release and copy.  "
              "Only PacketPool.acquire makes one.",
    .tp_traverse = (traverseproc)packet_traverse,
    .tp_clear = (inquiry)packet_clear,
    .tp_methods = packet_methods,
    .tp_members = packet_members,
};

/* --- PoolCore ----------------------------------------------------- */

/* The free list's last packet (a new reference), NULL when it is
 * empty (no error set) or on error. */
static PyObject *
pool_pop_free(PoolObject *self)
{
    PyObject *free = self->free, *packet;
    Py_ssize_t n;
    int r;
    if (require_member(free, "_free") < 0)
        return NULL;
    if (PyList_CheckExact(free)) {
        if ((n = PyList_GET_SIZE(free)) == 0)
            return NULL;
        packet = PyList_GET_ITEM(free, n - 1);
        Py_INCREF(packet);
        if (PyList_SetSlice(free, n - 1, n, NULL) < 0) {
            Py_DECREF(packet);
            return NULL;
        }
        return packet;
    }
    Py_INCREF(free);
    r = PyObject_IsTrue(free);
    packet = r > 0 ? PyObject_CallMethodNoArgs(free, s_pop) : NULL;
    Py_DECREF(free);
    return packet;
}

/* `acquire(*values)`: a packet life, recycled when possible. */
static PyObject *
pool_acquire_values(PoolObject *self, PyObject *const *values)
{
    PyObject *uid = PyLong_FromLongLong(self->next_uid), *packet, *type;
    if (uid == NULL)
        return NULL;
    self->next_uid += 1;
    packet = pool_pop_free(self);
    if (packet == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(uid);
            return NULL;
        }
        type = PyObject_GetAttr((PyObject *)self, s_packet_type);
        if (type != NULL && !(PyType_Check(type)
                              && PyType_IsSubtype((PyTypeObject *)type,
                                                  &PacketType))) {
            PyErr_SetString(PyExc_TypeError,
                            "_packet_type must be a Packet class");
            Py_CLEAR(type);
        }
        if (type == NULL) {
            Py_DECREF(uid);
            return NULL;
        }
        packet = ((PyTypeObject *)type)->tp_alloc((PyTypeObject *)type, 0);
        Py_DECREF(type);
        if (packet == NULL) {
            Py_DECREF(uid);
            return NULL;
        }
        Py_INCREF(self);
        ((PacketObject *)packet)->pool = (PyObject *)self;
        self->allocated += 1;
    }
    else if (!PyObject_TypeCheck(packet, &PacketType)) {
        PyErr_Format(PyExc_TypeError, "free list holds a %.200s, not a Packet",
                     Py_TYPE(packet)->tp_name);
        Py_DECREF(packet);
        Py_DECREF(uid);
        return NULL;
    }
    packet_fill((PacketObject *)packet, uid, values);
    return packet;
}

/* `acquire(src, dst, sport, dport, size, payload=None, nc=None,
 * created_at=0)`. */
static PyObject *
pool_acquire(PoolObject *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    PyObject *values[N_ACQUIRE_ARGS] = {
        NULL, NULL, NULL, NULL, NULL, Py_None, Py_None, g_zero};
    if (kwnames == NULL && nargs >= A_PAYLOAD && nargs <= N_ACQUIRE_ARGS)
        memcpy(values, args, nargs * sizeof(PyObject *));
    else if (bind_args("acquire", acquire_names, N_ACQUIRE_ARGS, A_PAYLOAD,
                       args, nargs, kwnames, NULL, values) < 0)
        return NULL;
    return pool_acquire_values(self, values);
}

static int
pool_init(PoolObject *self, PyObject *args, PyObject *kwargs)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwargs && PyDict_GET_SIZE(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "PacketPool() takes no arguments");
        return -1;
    }
    Py_XSETREF(self->free, PyList_New(0));
    if (self->free == NULL)
        return -1;
    self->next_uid = 1;
    self->allocated = 0;
    self->released = 0;
    return 0;
}

static int
pool_traverse(PoolObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->free);
    return 0;
}

static int
pool_clear(PoolObject *self)
{
    Py_CLEAR(self->free);
    return 0;
}

static void
pool_dealloc(PoolObject *self)
{
    PyObject_GC_UnTrack(self);
    pool_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef pool_members[] = {
    {"_free", T_OBJECT_EX, offsetof(PoolObject, free), 0, NULL},
    {"_next_uid", T_LONGLONG, offsetof(PoolObject, next_uid), 0, NULL},
    {"allocated", T_LONGLONG, offsetof(PoolObject, allocated), 0,
     "Packet objects newly constructed by this pool (not reuses)."},
    {"released", T_LONGLONG, offsetof(PoolObject, released), 0,
     "Total releases back into the free list."},
    {NULL}
};

static PyMethodDef pool_methods[] = {
    {"acquire", (PyCFunction)(void (*)(void))pool_acquire,
     METH_FASTCALL | METH_KEYWORDS,
     "A packet owned by this pool, recycled when possible."},
    {NULL}
};

static PyTypeObject PoolType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.PoolCore",
    .tp_basicsize = sizeof(PoolObject),
    .tp_dealloc = (destructor)pool_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of net.packet.PacketPool: the free list and uid counter.",
    .tp_traverse = (traverseproc)pool_traverse,
    .tp_clear = (inquiry)pool_clear,
    .tp_methods = pool_methods,
    .tp_members = pool_members,
    .tp_init = (initproc)pool_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* DirectionCore: one link direction's serialisation booking           */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *link;
    PyObject *sim;
    PyObject *ser_ns;        /* the link's size -> ns memo (a dict) */
    PyObject *entry;         /* the receiver's delivery callable */
    PyObject *rx_port;
    PyObject *rx_at_send;    /* truthy: call entry now with the arrival */
    long long free_at;
    long long tx_bytes;
    long long tx_count;
    long long rx_latency_ns;
    long long sched_off;
} DirObject;

/* `Direction.push`: book *packet* no earlier than *earliest* and hand
 * it to the receiver. */
static int
dir_push(DirObject *self, PyObject *packet, long long earliest)
{
    PyObject *size_obj, *ser_obj;
    long long size, ser, start, done, when;
    int at_send;
    if (require_member(self->link, "link") < 0
        || require_member(self->sim, "sim") < 0
        || require_member(self->ser_ns, "ser_ns") < 0
        || require_member(self->entry, "entry") < 0
        || require_member(self->rx_at_send, "rx_at_send") < 0
        || (at_send = PyObject_IsTrue(self->rx_at_send)) < 0)
        return -1;
    size_obj = GET_PACKET(packet, size);
    if (size_obj == NULL)
        return -1;
    size = PyLong_AsLongLong(size_obj);
    if (size == -1 && PyErr_Occurred()) {
        Py_DECREF(size_obj);
        return -1;
    }
    ser_obj = PyDict_GetItemWithError(self->ser_ns, size_obj);
    if (ser_obj != NULL && ser_obj != Py_None) {
        ser = PyLong_AsLongLong(ser_obj);
    }
    else {
        if (PyErr_Occurred()) {
            Py_DECREF(size_obj);
            return -1;
        }
        ser_obj = PyObject_CallMethodOneArg(self->link, s_serialization_ns,
                                            size_obj);
        if (ser_obj == NULL) {
            Py_DECREF(size_obj);
            return -1;
        }
        ser = PyLong_AsLongLong(ser_obj);
        Py_DECREF(ser_obj);
    }
    Py_DECREF(size_obj);
    if (ser == -1 && PyErr_Occurred())
        return -1;

    start = self->free_at;
    if (start < earliest)
        start = earliest;
    done = start + ser;
    self->free_at = done;
    self->tx_bytes += size;
    self->tx_count += 1;
    when = done + self->sched_off;
    if (at_send) {
        PyObject *entry = self->entry;
        PyObject *when_obj = PyLong_FromLongLong(when);
        PyObject *stack[3], *res;
        if (when_obj == NULL)
            return -1;
        stack[0] = NULL;
        stack[1] = packet;
        stack[2] = when_obj;
        Py_INCREF(entry);
        res = PyObject_Vectorcall(entry, stack + 1,
                                  2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        Py_DECREF(entry);
        Py_DECREF(when_obj);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    return hop_call_at(self->sim, when, self->entry, packet, (PyObject *)self);
}

/* *obj* as a link direction (every `Direction` is one); TypeError for
 * anything else. */
static DirObject *
as_direction(PyObject *obj)
{
    if (PyObject_TypeCheck(obj, &DirType))
        return (DirObject *)obj;
    PyErr_Format(PyExc_TypeError, "expected a link Direction, got %.200s",
                 Py_TYPE(obj)->tp_name);
    return NULL;
}

static PyObject *
dir_push_method(DirObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long earliest;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "push() takes exactly 2 arguments (packet, earliest)");
        return NULL;
    }
    earliest = PyLong_AsLongLong(args[1]);
    if (earliest == -1 && PyErr_Occurred())
        return NULL;
    if (dir_push(self, args[0], earliest) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
dir_traverse(DirObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->link);
    Py_VISIT(self->sim);
    Py_VISIT(self->ser_ns);
    Py_VISIT(self->entry);
    Py_VISIT(self->rx_port);
    Py_VISIT(self->rx_at_send);
    return 0;
}

static int
dir_clear(DirObject *self)
{
    Py_CLEAR(self->link);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->ser_ns);
    Py_CLEAR(self->entry);
    Py_CLEAR(self->rx_port);
    Py_CLEAR(self->rx_at_send);
    return 0;
}

static void
dir_dealloc(DirObject *self)
{
    PyObject_GC_UnTrack(self);
    dir_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef dir_members[] = {
    {"link", T_OBJECT_EX, offsetof(DirObject, link), 0, NULL},
    {"sim", T_OBJECT_EX, offsetof(DirObject, sim), 0, NULL},
    {"ser_ns", T_OBJECT_EX, offsetof(DirObject, ser_ns), 0, NULL},
    {"entry", T_OBJECT_EX, offsetof(DirObject, entry), 0, NULL},
    {"rx_port", T_OBJECT_EX, offsetof(DirObject, rx_port), 0, NULL},
    {"rx_at_send", T_OBJECT_EX, offsetof(DirObject, rx_at_send), 0, NULL},
    {"free_at", T_LONGLONG, offsetof(DirObject, free_at), 0, NULL},
    {"tx_bytes", T_LONGLONG, offsetof(DirObject, tx_bytes), 0, NULL},
    {"tx_count", T_LONGLONG, offsetof(DirObject, tx_count), 0, NULL},
    {"rx_latency_ns", T_LONGLONG, offsetof(DirObject, rx_latency_ns), 0, NULL},
    {"sched_off", T_LONGLONG, offsetof(DirObject, sched_off), 0, NULL},
    {NULL}
};

static PyMethodDef dir_methods[] = {
    {"push", (PyCFunction)(void (*)(void))dir_push_method, METH_FASTCALL,
     "Book packet onto the wire no earlier than earliest; hand it on."},
    {NULL}
};

static PyTypeObject DirType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.DirectionCore",
    .tp_basicsize = sizeof(DirObject),
    .tp_dealloc = (destructor)dir_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of net.link.Direction: the serialisation booking.",
    .tp_traverse = (traverseproc)dir_traverse,
    .tp_clear = (inquiry)dir_clear,
    .tp_methods = dir_methods,
    .tp_members = dir_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* SwitchCore: switch ingress pass and egress                          */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *counts;        /* the Counter's dict */
    PyObject *fast_apply;    /* the program's pass, or None */
    PyObject *routes;        /* ip -> port or selector */
    PyObject *port_tx;       /* port -> transmit direction */
    PyObject *tx_for_ip;     /* static ip -> transmit direction */
    PyObject *down;          /* truthy while powered off */
    PyObject *recirc_entry;  /* `_run_recirculated`, resolved at build */
    long long pipeline_latency_ns;
    long long recirc_latency_ns;
} SwitchObject;

static PyTypeObject PassType;
typedef struct PassObject PassObject;
static int pass_run(PassObject *self, PyObject *packet, PyObject *sw);

/* `ProgrammableSwitch._egress`: route *packet* and book it onto the
 * chosen port's direction. */
static int
switch_egress(SwitchObject *self, PyObject *packet)
{
    PyObject *dst, *tx, *link;
    DirObject *direction;
    long long now;
    int rc;
    if (require_member(self->sim, "sim") < 0
        || require_member(self->counts, "_counts") < 0
        || require_member(self->routes, "routes") < 0
        || require_member(self->port_tx, "_port_tx") < 0
        || require_member(self->tx_for_ip, "_tx_for_ip") < 0)
        return -1;
    dst = GET_PACKET(packet, dst);
    if (dst == NULL)
        return -1;
    tx = PyDict_GetItemWithError(self->tx_for_ip, dst);
    if (tx != NULL) {
        Py_INCREF(tx);
    }
    else {
        PyObject *route;
        if (PyErr_Occurred()) {
            Py_DECREF(dst);
            return -1;
        }
        route = PyDict_GetItemWithError(self->routes, dst);
        if (route == NULL) {
            if (PyErr_Occurred()) {
                Py_DECREF(dst);
                return -1;
            }
            route = Py_None;
        }
        Py_INCREF(route);
        if (route != Py_None && !PyLong_Check(route)) {
            /* A dynamic route: the selector picks the port. */
            PyObject *chosen = PyObject_CallOneArg(route, packet);
            Py_DECREF(route);
            if (chosen == NULL) {
                Py_DECREF(dst);
                return -1;
            }
            route = chosen;
        }
        tx = PyDict_GetItemWithError(self->port_tx, route);
        Py_DECREF(route);
        if (tx == NULL || tx == Py_None) {
            Py_DECREF(dst);
            if (PyErr_Occurred() || count_incr(self->counts, s_no_route) < 0)
                return -1;
            return release_packet(packet);
        }
        Py_INCREF(tx);
    }
    Py_DECREF(dst);
    if (count_incr(self->counts, s_tx) < 0) {
        Py_DECREF(tx);
        return -1;
    }
    direction = as_direction(tx);
    if (direction == NULL || require_member(direction->link, "link") < 0) {
        Py_DECREF(tx);
        return -1;
    }
    link = direction->link;
    Py_INCREF(link);
    rc = link_can_drop(link);
    if (rc > 0)
        rc = link_send(link, packet, (PyObject *)self);
    else if (rc == 0) {
        rc = sim_now_of(self->sim, &now);
        if (rc == 0)
            rc = dir_push(direction, packet, now);
    }
    Py_DECREF(link);
    Py_DECREF(tx);
    return rc;
}

/* The installed program's pass over *packet*, then its verdict: drop
 * (`dropped_by_program`) or egress by route.  A `NetClonePass` runs
 * in C with no Python frame; any other callable (another program, a
 * tracer's wrapper) is called. */
static PyObject *
switch_pass_then_egress(SwitchObject *self, PyObject *packet)
{
    PyObject *apply = self->fast_apply;
    int r;
    Py_INCREF(apply);
    if (Py_IS_TYPE(apply, &PassType))
        r = pass_run((PassObject *)apply, packet, (PyObject *)self);
    else {
        PyObject *stack[3] = {NULL, packet, (PyObject *)self};
        PyObject *verdict = PyObject_Vectorcall(
            apply, stack + 1, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        r = -1;
        if (verdict != NULL) {
            r = PyObject_IsTrue(verdict);
            Py_DECREF(verdict);
        }
    }
    Py_DECREF(apply);
    if (r < 0)
        return NULL;
    if (r) {
        if (count_incr(self->counts, s_dropped_by_program) < 0
            || release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (switch_egress(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* PortError("<switch>: packet arrived on unknown link <link>"). */
static PyObject *
raise_unknown_link(PyObject *self, DirObject *arriving)
{
    PyObject *name, *link_name = NULL;
    if (require_member(arriving->link, "link") < 0)
        return NULL;
    name = PyObject_GetAttr(self, s_name);
    if (name != NULL)
        link_name = PyObject_GetAttr(arriving->link, s_name);
    if (link_name != NULL)
        PyErr_Format(g_port_error, "%S: packet arrived on unknown link %S",
                     name, link_name);
    Py_XDECREF(name);
    Py_XDECREF(link_name);
    return NULL;
}

static PyObject *
switch_link_ingress(SwitchObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *packet, *port;
    DirObject *arriving;
    int r;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "link_ingress() takes exactly 2 arguments (packet, arriving)");
        return NULL;
    }
    packet = args[0];
    if ((arriving = as_direction(args[1])) == NULL
        || require_member(self->counts, "_counts") < 0
        || require_member(self->fast_apply, "_fast_apply") < 0
        || require_member(self->down, "down") < 0
        || (r = PyObject_IsTrue(self->down)) < 0)
        return NULL;
    if (r) {
        if (count_incr(self->counts, s_rx_dropped_down) < 0
            || release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    port = arriving->rx_port;
    if (require_member(port, "rx_port") < 0)
        return NULL;
    if (port == Py_None)
        return raise_unknown_link((PyObject *)self, arriving);
    Py_INCREF(port);
    r = SET_PACKET(packet, ingress_port, port);
    Py_DECREF(port);
    if (r < 0 || SET_PACKET(packet, recirculated, Py_False) < 0
        || count_incr(self->counts, s_rx) < 0)
        return NULL;
    if (self->fast_apply != Py_None)
        return switch_pass_then_egress(self, packet);
    if (switch_egress(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* `ProgrammableSwitch.recirculate`: loop *packet* back for another
 * pass `recirc_latency_ns + pipeline_latency_ns` from now. */
static PyObject *
switch_recirculate(SwitchObject *self, PyObject *packet)
{
    long long delay = self->recirc_latency_ns + self->pipeline_latency_ns;
    long long now;
    if (require_member(self->sim, "sim") < 0
        || require_member(self->counts, "_counts") < 0
        || require_member(self->recirc_entry, "_recirc_entry") < 0
        || count_incr(self->counts, s_recirculated) < 0)
        return NULL;
    if (delay < 0) {
        PyErr_Format(g_sched_error, "negative delay %lld", delay);
        return NULL;
    }
    if (sim_now_of(self->sim, &now) < 0
        || hop_call_at(self->sim, now + delay, self->recirc_entry, packet,
                       NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* `ProgrammableSwitch._run_recirculated`: a recirculated copy
 * re-enters the pipeline as a fresh pass. */
static PyObject *
switch_run_recirculated(SwitchObject *self, PyObject *packet)
{
    int r;
    if (require_member(self->counts, "_counts") < 0
        || require_member(self->fast_apply, "_fast_apply") < 0
        || require_member(self->down, "down") < 0
        || (r = PyObject_IsTrue(self->down)) < 0)
        return NULL;
    if (r) {
        if (count_incr(self->counts, s_dropped_down) < 0
            || release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (SET_PACKET(packet, recirculated, Py_True) < 0)
        return NULL;
    return switch_pass_then_egress(self, packet);
}

static PyObject *
switch_egress_method(SwitchObject *self, PyObject *packet)
{
    if (switch_egress(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
switch_traverse(SwitchObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->counts);
    Py_VISIT(self->fast_apply);
    Py_VISIT(self->routes);
    Py_VISIT(self->port_tx);
    Py_VISIT(self->tx_for_ip);
    Py_VISIT(self->down);
    Py_VISIT(self->recirc_entry);
    return 0;
}

static int
switch_clear(SwitchObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->counts);
    Py_CLEAR(self->fast_apply);
    Py_CLEAR(self->routes);
    Py_CLEAR(self->port_tx);
    Py_CLEAR(self->tx_for_ip);
    Py_CLEAR(self->down);
    Py_CLEAR(self->recirc_entry);
    return 0;
}

static void
switch_dealloc(SwitchObject *self)
{
    PyObject_GC_UnTrack(self);
    switch_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef switch_members[] = {
    {"sim", T_OBJECT_EX, offsetof(SwitchObject, sim), 0, NULL},
    {"_counts", T_OBJECT_EX, offsetof(SwitchObject, counts), 0, NULL},
    {"_fast_apply", T_OBJECT_EX, offsetof(SwitchObject, fast_apply), 0, NULL},
    {"routes", T_OBJECT_EX, offsetof(SwitchObject, routes), 0, NULL},
    {"_port_tx", T_OBJECT_EX, offsetof(SwitchObject, port_tx), 0, NULL},
    {"_tx_for_ip", T_OBJECT_EX, offsetof(SwitchObject, tx_for_ip), 0, NULL},
    {"down", T_OBJECT_EX, offsetof(SwitchObject, down), 0, NULL},
    {"_recirc_entry", T_OBJECT_EX, offsetof(SwitchObject, recirc_entry), 0,
     NULL},
    {"pipeline_latency_ns", T_LONGLONG,
     offsetof(SwitchObject, pipeline_latency_ns), 0, NULL},
    {"recirc_latency_ns", T_LONGLONG,
     offsetof(SwitchObject, recirc_latency_ns), 0, NULL},
    {NULL}
};

static PyMethodDef switch_methods[] = {
    {"link_ingress", (PyCFunction)(void (*)(void))switch_link_ingress,
     METH_FASTCALL, "Fused arrival + pipeline pass, one event per hop."},
    {"_egress", (PyCFunction)switch_egress_method, METH_O,
     "Route packet and book it onto the egress direction."},
    {"recirculate", (PyCFunction)switch_recirculate, METH_O,
     "Loop packet back through the pipeline for another pass."},
    {"_run_recirculated", (PyCFunction)switch_run_recirculated, METH_O,
     "A recirculated copy re-enters the pipeline as a fresh pass."},
    {NULL}
};

static PyTypeObject SwitchType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.SwitchCore",
    .tp_basicsize = sizeof(SwitchObject),
    .tp_dealloc = (destructor)switch_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of switchsim.switch.ProgrammableSwitch: ingress, "
              "recirculation and egress.",
    .tp_traverse = (traverseproc)switch_traverse,
    .tp_clear = (inquiry)switch_clear,
    .tp_methods = switch_methods,
    .tp_members = switch_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* NetClonePass: Algorithm 1, one switch pipeline pass                 */
/* ------------------------------------------------------------------ */

/* core/program.py's compiled pass, the C twin of the closure
 * `NetCloneProgram._compile_apply` builds on the pure-Python engine.
 * It holds what that closure captures: the program's register file
 * (a buffer on its `array('q')`, addressed by the same flat
 * `base + index` offsets), the live `GrpT`/`AddrT` entry dicts, the
 * table geometry and the program's flags. */

#define NC_UDP_PORT 9000       /* core/constants.py NETCLONE_UDP_PORT */
#define NC_MSG_REQ 1
#define NC_MSG_RESP 2
#define NC_STATE_IDLE 0
#define NC_SWID_UNSET 0
#define NC_CLO_NOT_CLONED 0
#define NC_CLO_CLONED_ORIGINAL 1
#define NC_CLO_CLONED_COPY 2
#define NC_CLO_NEVER_CLONE 3   /* core/constants.py CLO_NEVER_CLONE */
#define NC_SEQ_MAX 4294967295LL

struct PassObject {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    Py_buffer cells_view;    /* the register file's array('q') */
    long long *cells;
    PyObject *grp_entries;   /* GrpT._entries: group -> (srv1, srv2) */
    PyObject *addr_entries;  /* AddrT._entries: server -> ip */
    PyObject *state_name;    /* register names, for StageAccessError */
    PyObject *shadow_name;
    PyObject *switch_id;     /* this ToR's SWID stamp */
    long long switch_id_value;
    Py_ssize_t seq_index;
    Py_ssize_t state_base;
    Py_ssize_t shadow_base;
    Py_ssize_t state_size;
    Py_ssize_t *filter_bases;
    Py_ssize_t num_filters;
    unsigned long long state_mask;
    unsigned long long filter_mask;
    unsigned long long buckets;
    int cloning;
    int filtering;
    int jsq;
};

static uint32_t crc32_table[256];

/* The IEEE CRC-32 table (zlib's reflected polynomial 0xEDB88320). */
static void
crc32_init(void)
{
    uint32_t i, bit, c;
    for (i = 0; i < 256; i++) {
        c = i;
        for (bit = 0; bit < 8; bit++)
            c = c & 1 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        crc32_table[i] = c;
    }
}

/* `zlib.crc32(value.to_bytes(8, "little"))`. */
static uint32_t
crc32_u64(unsigned long long value)
{
    uint32_t c = 0xFFFFFFFFu;
    int i;
    for (i = 0; i < 8; i++) {
        c = crc32_table[(c ^ (uint32_t)(value & 0xFF)) & 0xFF] ^ (c >> 8);
        value >>= 8;
    }
    return c ^ 0xFFFFFFFFu;
}

/* `obj == value` for a header field: 1, 0, or -1 on error.  An int
 * compares in C; anything else takes Python's `==`. */
static int
field_eq(PyObject *obj, long long value)
{
    PyObject *other;
    int r;
    if (PyLong_CheckExact(obj)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
        if (v == -1 && PyErr_Occurred())
            return -1;
        return !overflow && v == value;
    }
    if ((other = PyLong_FromLongLong(value)) == NULL)
        return -1;
    r = PyObject_RichCompareBool(obj, other, Py_EQ);
    Py_DECREF(other);
    return r;
}

/* `<field> == value` (a NULL field is a failed read): 1, 0, or -1. */
static int
take_eq(PyObject *field, long long value)
{
    int r;
    if (field == NULL)
        return -1;
    r = field_eq(field, value);
    Py_DECREF(field);
    return r;
}

/* `nc.clo = value` for a small int value. */
static int
set_clo(PyObject *nc, long value)
{
    PyObject *obj = PyLong_FromLong(value);
    int r;
    if (obj == NULL)
        return -1;
    r = SET_HEADER(nc, clo, obj);
    Py_DECREF(obj);
    return r;
}

/* *index* as a state-table cell: the closure's
 * `if not 0 <= index < size: raise StageAccessError(...)`. */
static int
state_index(PassObject *self, PyObject *index, PyObject *register_name,
            Py_ssize_t *out)
{
    int overflow = 0;
    long long v;
    if (!PyLong_Check(index)) {
        PyErr_SetString(PyExc_TypeError, "array indices must be integers");
        return -1;
    }
    v = PyLong_AsLongLongAndOverflow(index, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || v >= self->state_size) {
        PyErr_Format(g_stage_access_error,
                     "index %S out of range for register %R (size %zd)",
                     index, register_name, self->state_size);
        return -1;
    }
    *out = (Py_ssize_t)v;
    return 0;
}

/* `<field> & mask` (a NULL field is a failed read), for a mask below
 * 2**63. */
static int
take_masked(PyObject *field, unsigned long long mask, unsigned long long *out)
{
    if (field == NULL)
        return -1;
    *out = PyLong_AsUnsignedLongLongMask(field);
    Py_DECREF(field);
    if (*out == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    *out &= mask;
    return 0;
}

/* `<field> % n` for n > 0, as Python computes it (a NULL field is a
 * failed read); the result must index a table of n entries. */
static int
take_mod(PyObject *field, Py_ssize_t n, Py_ssize_t *out)
{
    PyObject *divisor, *rem;
    if (field == NULL)
        return -1;
    if (PyLong_CheckExact(field)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(field, &overflow);
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(field);
            return -1;
        }
        if (!overflow) {
            Py_DECREF(field);
            v %= n;
            *out = (Py_ssize_t)(v < 0 ? v + n : v);
            return 0;
        }
    }
    divisor = PyLong_FromSsize_t(n);
    rem = divisor == NULL ? NULL : PyNumber_Remainder(field, divisor);
    Py_XDECREF(divisor);
    Py_DECREF(field);
    if (rem == NULL)
        return -1;
    *out = PyLong_AsSsize_t(rem);
    Py_DECREF(rem);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (*out < 0 || *out >= n) {
        PyErr_SetString(PyExc_IndexError, "filter table index out of range");
        return -1;
    }
    return 0;
}

/* `switch._counts[key] += 1`. */
static int
switch_count(PyObject *sw, PyObject *key)
{
    PyObject *counts;
    int r;
    if (PyObject_TypeCheck(sw, &SwitchType)) {
        counts = ((SwitchObject *)sw)->counts;
        if (require_member(counts, "_counts") < 0)
            return -1;
        Py_INCREF(counts);
    }
    else if ((counts = PyObject_GetAttr(sw, s_counts)) == NULL)
        return -1;
    r = count_incr(counts, key);
    Py_DECREF(counts);
    return r;
}

/* `switch.recirculate(packet.copy())`: the copy comes from the
 * packet's pool, and `copy` and `recirculate` resolve as Python would
 * resolve them, so an override or a wrapper still sees both. */
static int
pass_clone(PyObject *packet, PyObject *sw)
{
    PyObject *stack[2], *copy, *res;
    const char *outer = g_acquire_site;
    g_acquire_site = "program.py:NetClonePass";
    copy = call_method0(packet, s_copy, (PyCFunction)packet_copy);
    g_acquire_site = outer;
    if (copy == NULL)
        return -1;
    stack[0] = sw;
    stack[1] = copy;
    res = PyObject_VectorcallMethod(s_recirculate, stack, 2, NULL);
    Py_DECREF(copy);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* `packet.dst = addr_get(server)`, or the `nc_unknown_server` drop:
 * 0 forwards, 1 drops, -1 on error. */
static int
pass_route(PassObject *self, PyObject *packet, PyObject *sw,
           PyObject *server)
{
    PyObject *address = PyDict_GetItemWithError(self->addr_entries, server);
    int r;
    if (address == NULL) {
        if (PyErr_Occurred() || switch_count(sw, s_nc_unknown_server) < 0)
            return -1;
        return 1;
    }
    Py_INCREF(address);
    r = SET_PACKET(packet, dst, address);
    Py_DECREF(address);
    return r;
}

/* A fresh request (lines 1-10).  `unset`: the packet carries no SWID. */
static int
pass_request(PassObject *self, PyObject *packet, PyObject *nc, PyObject *sw,
             int unset)
{
    PyObject *field, *pair, *srv1, *srv2, *destination;
    Py_ssize_t i1, i2;
    long long state1, state2;
    int r, never;
    if (unset && SET_HEADER(nc, swid, self->switch_id) < 0)
        return -1;
    /* A client-assigned ID (§3.7) is kept and SEQ is left alone; ID 0
     * asks the switch for the next sequence number. */
    if ((r = take_eq(GET_HEADER(nc, req_id), 0)) < 0)
        return -1;
    if (r) {
        long long *seq = &self->cells[self->seq_index];
        PyObject *req_id;
        *seq = *seq >= NC_SEQ_MAX ? 1 : *seq + 1;
        if ((req_id = PyLong_FromLongLong(*seq)) == NULL)
            return -1;
        r = SET_HEADER(nc, req_id, req_id);
        Py_DECREF(req_id);
        if (r < 0)
            return -1;
    }
    if ((field = GET_HEADER(nc, grp)) == NULL)
        return -1;
    pair = PyDict_GetItemWithError(self->grp_entries, field);
    Py_DECREF(field);
    if (pair == NULL) {
        if (PyErr_Occurred() || switch_count(sw, s_nc_unknown_group) < 0)
            return -1;
        return 1;
    }
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2) {
        PyErr_Format(PyExc_TypeError,
                     "group entry is not a (srv1, srv2) pair: %R", pair);
        return -1;
    }
    /* The pass below calls Python (copy, recirculate): own the pair. */
    Py_INCREF(pair);
    srv1 = PyTuple_GET_ITEM(pair, 0);
    srv2 = PyTuple_GET_ITEM(pair, 1);
    r = -1;
    if (state_index(self, srv1, self->state_name, &i1) < 0
        || state_index(self, srv2, self->shadow_name, &i2) < 0
        || (never = take_eq(GET_HEADER(nc, clo), NC_CLO_NEVER_CLONE)) < 0)
        goto done;
    state1 = self->cells[self->state_base + i1];
    state2 = self->cells[self->shadow_base + i2];
    destination = srv1;
    if (self->cloning && !never && state1 == NC_STATE_IDLE
        && state2 == NC_STATE_IDLE) {
        /* Mark as cloned original, remember the clone's server in SID
         * and recirculate a copy that picks up its IP on the second
         * pass (lines 7-9). */
        if (set_clo(nc, NC_CLO_CLONED_ORIGINAL) < 0
            || SET_HEADER(nc, sid, srv2) < 0
            || pass_clone(packet, sw) < 0
            || switch_count(sw, s_nc_cloned) < 0)
            goto done;
    }
    else {
        if (never && set_clo(nc, NC_CLO_NOT_CLONED) < 0)
            goto done;
        if (self->jsq && state2 < state1) {
            /* RackSched fallback: join the shorter queue (§3.7). */
            destination = srv2;
            if (switch_count(sw, s_nc_jsq_second_choice) < 0)
                goto done;
        }
    }
    r = pass_route(self, packet, sw, destination);
done:
    Py_DECREF(pair);
    return r;
}

/* A recirculated clone (lines 11-13). */
static int
pass_recirculated(PassObject *self, PyObject *packet, PyObject *nc,
                  PyObject *sw)
{
    PyObject *sid;
    int r;
    if (set_clo(nc, NC_CLO_CLONED_COPY) < 0
        || (sid = GET_HEADER(nc, sid)) == NULL)
        return -1;
    r = pass_route(self, packet, sw, sid);
    Py_DECREF(sid);
    return r;
}

/* A response (lines 14-26). */
static int
pass_response(PassObject *self, PyObject *nc, PyObject *sw)
{
    PyObject *field;
    Py_ssize_t sid, which, flat;
    unsigned long long state, req_bits;
    long long old;
    int r;
    if ((field = GET_HEADER(nc, sid)) == NULL)
        return -1;
    r = state_index(self, field, self->state_name, &sid);
    Py_DECREF(field);
    if (r < 0 || take_masked(GET_HEADER(nc, state), self->state_mask,
                             &state) < 0)
        return -1;
    self->cells[self->state_base + sid] = (long long)state;
    self->cells[self->shadow_base + sid] = (long long)state;
    if ((r = take_eq(GET_HEADER(nc, clo), NC_CLO_NOT_CLONED)) != 0
        || !self->filtering)
        return r < 0 ? -1 : 0;
    if ((field = GET_HEADER(nc, req_id)) == NULL)
        return -1;
    req_bits = PyLong_AsUnsignedLongLongMask(field);
    if ((req_bits == (unsigned long long)-1 && PyErr_Occurred())
        || take_mod(GET_HEADER(nc, idx), self->num_filters, &which) < 0) {
        Py_DECREF(field);
        return -1;
    }
    flat = self->filter_bases[which]
           + (Py_ssize_t)(crc32_u64(req_bits) % self->buckets);
    old = self->cells[flat];
    if ((r = take_eq(field, old)) < 0)
        return -1;
    if (r) {
        /* The faster response already passed: this is the slower one.
         * Clear the slot for reuse. */
        self->cells[flat] = 0;
        return switch_count(sw, s_nc_filtered) < 0 ? -1 : 1;
    }
    self->cells[flat] = (long long)(req_bits & self->filter_mask);
    if ((old != 0 && switch_count(sw, s_nc_fingerprint_overwrite) < 0)
        || switch_count(sw, s_nc_fingerprint_insert) < 0)
        return -1;
    return 0;
}

/* A packet through the port gate; *nc* is its header. */
static int
pass_header(PassObject *self, PyObject *packet, PyObject *nc, PyObject *sw)
{
    PyObject *field;
    int unset, r, is_request;
    if ((field = GET_HEADER(nc, swid)) == NULL)
        return -1;
    unset = field_eq(field, NC_SWID_UNSET);
    r = unset ? unset : field_eq(field, self->switch_id_value);
    Py_DECREF(field);
    if (r <= 0)
        return r;  /* another ToR's packet: untouched */
    if ((field = GET_HEADER(nc, msg_type)) == NULL)
        return -1;
    is_request = field_eq(field, NC_MSG_REQ);
    r = is_request ? is_request : field_eq(field, NC_MSG_RESP);
    Py_DECREF(field);
    if (r <= 0)
        return r;  /* an unknown message type is plainly forwarded */
    if (!is_request)
        return pass_response(self, nc, sw);
    if ((field = GET_PACKET(packet, recirculated)) == NULL)
        return -1;
    r = PyObject_IsTrue(field);
    Py_DECREF(field);
    if (r < 0)
        return -1;
    if (r)
        return pass_recirculated(self, packet, nc, sw);
    return pass_request(self, packet, nc, sw, unset);
}

/* One pass: 1 drops *packet*, 0 forwards it by route, -1 on error. */
static int
pass_run(PassObject *self, PyObject *packet, PyObject *sw)
{
    PyObject *nc;
    int r;
    /* The gate `NetCloneProgram.matches` states, folded into the pass:
     * NetClone port, parseable header, SWID unset or our own. */
    if ((r = take_eq(GET_PACKET(packet, dport), NC_UDP_PORT)) <= 0)
        return r;
    if ((nc = GET_PACKET(packet, nc)) == NULL)
        return -1;
    r = nc == Py_None ? 0 : pass_header(self, packet, nc, sw);
    Py_DECREF(nc);
    return r;
}

/* `apply(packet, switch) -> True | None`, from Python. */
static PyObject *
pass_vectorcall(PyObject *callable, PyObject *const *args, size_t nargsf,
                PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    int r;
    if (nargs != 2 || (kwnames != NULL && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError,
                        "apply() takes exactly 2 positional arguments "
                        "(packet, switch)");
        return NULL;
    }
    Py_INCREF(callable);
    r = pass_run((PassObject *)callable, args[0], args[1]);
    Py_DECREF(callable);
    if (r < 0)
        return NULL;
    if (r)
        Py_RETURN_TRUE;
    Py_RETURN_NONE;
}

/* An unsigned int argument that must fit a non-negative C long long. */
static int
nonneg_ll(PyObject *value, const char *name, unsigned long long *out)
{
    *out = PyLong_AsUnsignedLongLong(value);
    if (*out == (unsigned long long)-1 && PyErr_Occurred())
        return -1;
    if (*out > (unsigned long long)LLONG_MAX) {
        PyErr_Format(PyExc_ValueError, "NetClonePass: %s too large", name);
        return -1;
    }
    return 0;
}

/* `[base, base + size)` must lie inside the register file. */
static int
check_span(Py_ssize_t base, unsigned long long size, Py_ssize_t ncells,
           const char *name)
{
    if (base < 0 || size == 0 || size > (unsigned long long)ncells
        || (unsigned long long)base > (unsigned long long)ncells - size) {
        PyErr_Format(PyExc_ValueError,
                     "NetClonePass: %s lies outside the register file", name);
        return -1;
    }
    return 0;
}

static void pass_dealloc(PassObject *self);

static PyObject *
pass_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {
        "cells", "grp_entries", "addr_entries", "seq_index", "state_base",
        "shadow_base", "state_size", "state_mask", "state_name",
        "shadow_name", "filter_bases", "filter_mask", "buckets",
        "switch_id", "cloning", "filtering", "jsq", NULL};
    PyObject *cells, *grp, *addr, *state_mask, *state_name, *shadow_name,
        *bases, *filter_mask, *buckets, *switch_id;
    Py_ssize_t seq_index, state_base, shadow_base, state_size, ncells, i;
    int cloning, filtering, jsq;
    PassObject *self;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OO!O!nnnnOUUO!OOOppp:NetClonePass", kwlist,
            &cells, &PyDict_Type, &grp, &PyDict_Type, &addr, &seq_index,
            &state_base, &shadow_base, &state_size, &state_mask,
            &state_name, &shadow_name, &PyTuple_Type, &bases, &filter_mask,
            &buckets, &switch_id, &cloning, &filtering, &jsq))
        return NULL;
    if ((self = (PassObject *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    self->vectorcall = pass_vectorcall;
    if (PyObject_GetBuffer(cells, &self->cells_view,
                           PyBUF_WRITABLE | PyBUF_FORMAT | PyBUF_ND) < 0)
        goto fail;
    if (self->cells_view.itemsize != sizeof(long long)
        || self->cells_view.format == NULL
        || strcmp(self->cells_view.format, "q") != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "NetClonePass: cells must be an array('q')");
        goto fail;
    }
    self->cells = (long long *)self->cells_view.buf;
    ncells = self->cells_view.len / (Py_ssize_t)sizeof(long long);
    Py_INCREF(grp);
    self->grp_entries = grp;
    Py_INCREF(addr);
    self->addr_entries = addr;
    Py_INCREF(state_name);
    self->state_name = state_name;
    Py_INCREF(shadow_name);
    self->shadow_name = shadow_name;
    Py_INCREF(switch_id);
    self->switch_id = switch_id;
    self->switch_id_value = PyLong_AsLongLong(switch_id);
    if (self->switch_id_value == -1 && PyErr_Occurred())
        goto fail;
    self->seq_index = seq_index;
    self->state_base = state_base;
    self->shadow_base = shadow_base;
    self->state_size = state_size;
    self->cloning = cloning;
    self->filtering = filtering;
    self->jsq = jsq;
    if (nonneg_ll(state_mask, "state_mask", &self->state_mask) < 0
        || nonneg_ll(filter_mask, "filter_mask", &self->filter_mask) < 0
        || nonneg_ll(buckets, "buckets", &self->buckets) < 0
        || check_span(seq_index, 1, ncells, "SEQ") < 0
        || check_span(state_base, (unsigned long long)state_size, ncells,
                      "the state table") < 0
        || check_span(shadow_base, (unsigned long long)state_size, ncells,
                      "the shadow table") < 0)
        goto fail;
    self->num_filters = PyTuple_GET_SIZE(bases);
    if (self->num_filters == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "NetClonePass: needs at least one filter table");
        goto fail;
    }
    self->filter_bases = PyMem_New(Py_ssize_t, self->num_filters);
    if (self->filter_bases == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    for (i = 0; i < self->num_filters; i++) {
        Py_ssize_t base = PyLong_AsSsize_t(PyTuple_GET_ITEM(bases, i));
        if ((base == -1 && PyErr_Occurred())
            || check_span(base, self->buckets, ncells, "a filter table") < 0)
            goto fail;
        self->filter_bases[i] = base;
    }
    return (PyObject *)self;
fail:
    pass_dealloc(self);
    return NULL;
}

static void
pass_dealloc(PassObject *self)
{
    if (self->cells_view.obj != NULL)
        PyBuffer_Release(&self->cells_view);
    Py_XDECREF(self->grp_entries);
    Py_XDECREF(self->addr_entries);
    Py_XDECREF(self->state_name);
    Py_XDECREF(self->shadow_name);
    Py_XDECREF(self->switch_id);
    PyMem_Free(self->filter_bases);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyTypeObject PassType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.NetClonePass",
    .tp_basicsize = sizeof(PassObject),
    .tp_dealloc = (destructor)pass_dealloc,
    .tp_vectorcall_offset = offsetof(PassObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "Algorithm 1 as one switch pass: apply(packet, switch) -> "
              "True (drop) or None (forward).",
    .tp_new = pass_new,
};

/* ------------------------------------------------------------------ */
/* HostCore: the host NIC's TX and RX slots                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *name;
    PyObject *ip;
    PyObject *packet_pool;   /* where this host's packets come from */
    PyObject *link;
    PyObject *uplink;        /* the direction this host transmits on */
    long long tx_cost_ns;
    long long rx_cost_ns;
    long long rx_queue_limit;
    long long tx_free_at;
    long long rx_free_at;
    long long rx_dropped;
} HostObject;

/* A worker server: the host, then core/server.py's `_ServerCore`
 * state (see ServerCore below). */
typedef struct {
    HostObject host;
    PyObject *server_id, *service, *jitter, *rng, *netclone_mode,
        *drop_stale_clones, *reply_to_ip, *queue, *counters, *counts,
        *fixed_resp_size;
    PyObject *handle_entry;  /* the bound C `handle`, made once */
    PyObject *finish_entry;  /* the bound C `_finish_work`, made once */
    long long num_workers;
    long long busy_workers;
    long long state_samples_zero;
    long long state_samples_total;
    char trivial_spin;
} ServerObject;

/* An open-loop client: the host, then apps/client.py's `_ClientCore`
 * state (see ClientCore below). */
typedef struct {
    HostObject host;
    PyObject *client_id, *workload, *recorder, *rng, *stop_at_ns,
        *arrival_process, *outstanding, *arrivals, *fixed_req_size;
    PyObject *handle_entry;  /* the bound C `handle`, made once */
    PyObject *send_entry;    /* the bound C `_send_one`, made once */
    double mean_gap_ns;
    long long seq;
    long long predrawn_seq;
    long long responses_received;
    long long redundant_responses;
    Py_ssize_t arrival_idx;
} ClientObject;

static PyTypeObject ServerType, ClientType;
static PyObject *server_handle(ServerObject *self, PyObject *packet);
static PyObject *client_handle(ClientObject *self, PyObject *packet);

/* `obj.<name>` as Python reads it; when that is the C method *meth*,
 * the bound method made the first time and kept in *cache*, so a hot
 * entry point is not re-bound on every event. */
static PyObject *
bound_entry(PyObject *obj, PyObject *name, PyCFunction meth, PyObject **cache)
{
    if (!resolves_to(obj, name, meth))
        return PyObject_GetAttr(obj, name);
    if (*cache == NULL && (*cache = PyObject_GetAttr(obj, name)) == NULL)
        return NULL;
    Py_INCREF(*cache);
    return *cache;
}

/* `self.handle`, the entry an RX completion dispatches to. */
static PyObject *
host_handle_entry(HostObject *self)
{
    if (PyObject_TypeCheck(self, &ServerType))
        return bound_entry((PyObject *)self, s_handle,
                           (PyCFunction)server_handle,
                           &((ServerObject *)self)->handle_entry);
    if (PyObject_TypeCheck(self, &ClientType))
        return bound_entry((PyObject *)self, s_handle,
                           (PyCFunction)client_handle,
                           &((ClientObject *)self)->handle_entry);
    return PyObject_GetAttr((PyObject *)self, s_handle);
}

static PyObject *
host_send(HostObject *self, PyObject *packet)
{
    PyObject *link;
    long long now, start, done;
    int rc;
    if (require_member(self->link, "link") < 0
        || require_member(self->sim, "sim") < 0)
        return NULL;
    if (self->link == Py_None) {
        if (require_member(self->name, "name") == 0)
            PyErr_Format(g_network_error, "%S has no link attached", self->name);
        return NULL;
    }
    if (sim_now_of(self->sim, &now) < 0)
        return NULL;
    start = self->tx_free_at;
    if (start < now)
        start = now;
    done = start + self->tx_cost_ns;
    self->tx_free_at = done;
    link = self->link;
    Py_INCREF(link);
    rc = link_can_drop(link);
    if (rc > 0) {
        /* A link that can drop re-evaluates when the packet leaves. */
        if (done == now)
            rc = link_send(link, packet, (PyObject *)self);
        else {
            PyObject *emit = PyObject_GetAttr((PyObject *)self, s_emit);
            rc = emit == NULL ? -1
                              : hop_call_at(self->sim, done, emit, packet, NULL);
            Py_XDECREF(emit);
        }
    }
    else if (rc == 0) {
        DirObject *uplink;
        if (require_member(self->uplink, "_uplink") < 0
            || (uplink = as_direction(self->uplink)) == NULL)
            rc = -1;
        else {
            Py_INCREF(uplink);
            rc = dir_push(uplink, packet, done);
            Py_DECREF(uplink);
        }
    }
    Py_DECREF(link);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
host_link_rx_at(HostObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *packet, *handle;
    long long arrival, start, cost, done;
    int rc;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "link_rx_at() takes exactly 2 arguments (packet, arrival)");
        return NULL;
    }
    if (require_member(self->sim, "sim") < 0)
        return NULL;
    packet = args[0];
    arrival = PyLong_AsLongLong(args[1]);
    if (arrival == -1 && PyErr_Occurred())
        return NULL;
    start = self->rx_free_at;
    if (start < arrival)
        start = arrival;
    cost = self->rx_cost_ns;
    if (cost > 0 && (start - arrival) / cost >= self->rx_queue_limit) {
        self->rx_dropped += 1;
        if (release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    done = start + cost;
    self->rx_free_at = done;
    handle = host_handle_entry(self);
    if (handle == NULL)
        return NULL;
    rc = hop_call_at(self->sim, done, handle, packet, NULL);
    Py_DECREF(handle);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
host_traverse(HostObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->name);
    Py_VISIT(self->ip);
    Py_VISIT(self->packet_pool);
    Py_VISIT(self->link);
    Py_VISIT(self->uplink);
    return 0;
}

static int
host_clear(HostObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->name);
    Py_CLEAR(self->ip);
    Py_CLEAR(self->packet_pool);
    Py_CLEAR(self->link);
    Py_CLEAR(self->uplink);
    return 0;
}

static void
host_dealloc(HostObject *self)
{
    PyObject_GC_UnTrack(self);
    host_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef host_members[] = {
    {"sim", T_OBJECT_EX, offsetof(HostObject, sim), 0, NULL},
    {"name", T_OBJECT_EX, offsetof(HostObject, name), 0, NULL},
    {"ip", T_OBJECT_EX, offsetof(HostObject, ip), 0, NULL},
    {"packet_pool", T_OBJECT_EX, offsetof(HostObject, packet_pool), 0, NULL},
    {"link", T_OBJECT_EX, offsetof(HostObject, link), 0, NULL},
    {"_uplink", T_OBJECT_EX, offsetof(HostObject, uplink), 0, NULL},
    {"tx_cost_ns", T_LONGLONG, offsetof(HostObject, tx_cost_ns), 0, NULL},
    {"rx_cost_ns", T_LONGLONG, offsetof(HostObject, rx_cost_ns), 0, NULL},
    {"rx_queue_limit", T_LONGLONG, offsetof(HostObject, rx_queue_limit), 0, NULL},
    {"_tx_free_at", T_LONGLONG, offsetof(HostObject, tx_free_at), 0, NULL},
    {"_rx_free_at", T_LONGLONG, offsetof(HostObject, rx_free_at), 0, NULL},
    {"rx_dropped", T_LONGLONG, offsetof(HostObject, rx_dropped), 0, NULL},
    {NULL}
};

static PyMethodDef host_methods[] = {
    {"send", (PyCFunction)host_send, METH_O,
     "Send packet through the TX path onto the uplink."},
    {"link_rx_at", (PyCFunction)(void (*)(void))host_link_rx_at,
     METH_FASTCALL, "Link arrival + RX booking, called at send time."},
    {NULL}
};

static PyTypeObject HostType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.HostCore",
    .tp_basicsize = sizeof(HostObject),
    .tp_dealloc = (destructor)host_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of net.host.Host: its name, address and pool, and "
              "the NIC's TX and RX slots.",
    .tp_traverse = (traverseproc)host_traverse,
    .tp_clear = (inquiry)host_clear,
    .tp_methods = host_methods,
    .tp_members = host_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* ServerCore: the worker server's request path                       */
/* ------------------------------------------------------------------ */

/* core/server.py's `handle`, `_start_work`, `_finish_work` and
 * `_respond`: the C twin of the pure-Python `_ServerCore`, which stays
 * the reference.  `RpcServer` combines `Host` with whichever is live,
 * so one object holds the NIC slots and the server state.  The path
 * keeps the reference's every observable: the same `rng.random()`
 * draws, one `call_after` seq per execution, the same `_counts` keys
 * in the same order, dispatch before respond (so STATE reflects the
 * queue after the dispatch) and the 255 clamp on STATE.  A service
 * that is not a trivial spin is asked for its service time, execution
 * and response size, with `jitter.apply` in between; for the KV
 * service those run here (see "The KV service replay" below).  Each
 * of the four methods, `send`, `release` and `acquire` is called in C
 * only where Python would resolve the name to the C method, so
 * class-level wrappers (and the sanitizer's `acquire`) see every call. */

#define NC_STATE_MAX 255   /* the STATE field is one byte */
#define KV_SCAN_VALUES 16  /* apps/service.py: values a SCAN response carries */

static PyObject *s_start_work, *s_finish_work, *s_respond, *s_service_ns,
    *s_p, *s_factor, *s_random, *s_base_service_ns, *s_apply, *s_execute,
    *s_response_size, *s_popleft, *s_call_after, *s_non_request_ignored,
    *s_clones_dropped, *s_requests_accepted, *s_responses_sent,
    *s_cost_model, *s_store, *s_op, *s_key, *s_count, *s_get, *s_scan,
    *s_check_key, *s_base_value, *s_num_keys, *s_gets, *s_scans, *s_get_ns,
    *s_scan_base_ns, *s_scan_per_item_ns, *s_set_ns, *s_response_overhead,
    *s_value_bytes;
static PyObject *g_scan_values = NULL;    /* KV_SCAN_VALUES */
static PyObject *g_msg_resp = NULL;       /* MSG_RESP */
static PyObject *g_udp_port = NULL;       /* NETCLONE_UDP_PORT */

static PyObject *server_start_work(ServerObject *self, PyObject *packet);
static PyObject *server_finish_work(ServerObject *self, PyObject *packet);
static PyObject *server_respond(ServerObject *self, PyObject *request);

/* `bool(<member>)`: 1, 0, or -1 (an unset member raises). */
static int
truthy_member(PyObject *value, const char *name)
{
    if (require_member(value, name) < 0)
        return -1;
    return PyObject_IsTrue(value);
}

/* `a < b` or `a > b` (*op*): doubles compare in C. */
static int
number_cmp(PyObject *a, PyObject *b, int op)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b)) {
        double x = PyFloat_AS_DOUBLE(a), y = PyFloat_AS_DOUBLE(b);
        return op == Py_LT ? x < y : x > y;
    }
    return PyObject_RichCompareBool(a, b, op);
}

/* `obj.<name>(*args)` for up to three arguments, a new reference. */
static PyObject *
call_method(PyObject *obj, PyObject *name, PyObject *const *args,
            Py_ssize_t nargs)
{
    PyObject *stack[4], *res;
    stack[0] = obj;
    if (nargs > 0)
        memcpy(stack + 1, args, nargs * sizeof(PyObject *));
    Py_INCREF(obj);
    res = PyObject_VectorcallMethod(name, stack, nargs + 1, NULL);
    Py_DECREF(obj);
    return res;
}

/* `obj.<name>(*args)`, result discarded. */
static int
call_discard(PyObject *obj, PyObject *name, PyObject *const *args,
             Py_ssize_t nargs)
{
    PyObject *res = call_method(obj, name, args, nargs);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* `self.<name>(arg)` (*arg* NULL: no argument): the C method *meth*
 * directly when Python would resolve the name to it, else the call
 * Python would make.  A new reference. */
static PyObject *
self_call(PyObject *self, PyObject *name, PyCFunction meth, PyObject *arg)
{
    if (resolves_to(self, name, meth))
        return meth(self, arg);
    return call_method(self, name, &arg, arg == NULL ? 0 : 1);
}

/* `self.<name>(arg)` as `self_call`, result discarded. */
static int
self_discard(PyObject *self, PyObject *name, PyCFunction meth, PyObject *arg)
{
    PyObject *res = self_call(self, name, meth, arg);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* `self._counts[key] += 1`. */
static int
server_count(ServerObject *self, PyObject *key)
{
    PyObject *counts = self->counts;
    int r;
    if (require_member(counts, "_counts") < 0)
        return -1;
    Py_INCREF(counts);
    r = count_incr(counts, key);
    Py_DECREF(counts);
    return r;
}

/* `self.queue.<name>(*args)`, a new reference. */
static PyObject *
queue_call(ServerObject *self, PyObject *name, PyObject *const *args,
           Py_ssize_t nargs)
{
    if (require_member(self->queue, "queue") < 0)
        return NULL;
    return call_method(self->queue, name, args, nargs);
}

/* The §3.4 stale-clone test: `self.netclone_mode and
 * self.drop_stale_clones and nc is not None and nc.clo ==
 * CLO_CLONED_COPY and self.queue`. */
static int
server_stale_clone(ServerObject *self, PyObject *nc)
{
    int r = truthy_member(self->netclone_mode, "netclone_mode");
    if (r > 0)
        r = truthy_member(self->drop_stale_clones, "drop_stale_clones");
    if (r > 0 && nc == Py_None)
        r = 0;
    if (r > 0)
        r = take_eq(GET_HEADER(nc, clo), NC_CLO_CLONED_COPY);
    if (r > 0)
        r = truthy_member(self->queue, "queue");
    return r;
}

static PyObject *
server_handle(ServerObject *self, PyObject *packet)
{
    PyObject *nc = GET_PACKET(packet, nc), *res;
    PyObject *counted = NULL;
    int r = 0;
    if (nc == NULL)
        return NULL;
    if (nc != Py_None) {
        /* `nc.msg_type != MSG_REQ`. */
        if ((r = take_eq(GET_HEADER(nc, msg_type), NC_MSG_REQ)) >= 0)
            r = !r;
        if (r > 0)
            counted = s_non_request_ignored;
    }
    if (r == 0 && (r = server_stale_clone(self, nc)) > 0)
        /* Stale cloning decision: the tracked state said idle, the
         * actual state is busy.  Drop the clone, never the original. */
        counted = s_clones_dropped;
    Py_DECREF(nc);
    if (r < 0)
        return NULL;
    if (counted != NULL) {
        if (server_count(self, counted) < 0 || release_packet(packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if (server_count(self, s_requests_accepted) < 0)
        return NULL;
    if (self->busy_workers < self->num_workers) {
        self->busy_workers += 1;
        if (self_discard((PyObject *)self, s_start_work,
                         (PyCFunction)server_start_work, packet) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    if ((res = queue_call(self, s_append, &packet, 1)) == NULL)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_NONE;
}

/* JitterModel.apply inlined: `if jitter.p > 0.0 and self.rng.random()
 * < jitter.p: base = int(base * jitter.factor)`.  Replaces *base* in
 * place.  A trivial spin always runs it, as the reference does (a
 * factor >= 1 is enforced by JitterModel's constructor, so execution
 * is never shortened); any other service where Python would resolve
 * `jitter.apply` to JitterModel's. */
static int
server_inline_jitter(ServerObject *self, PyObject **base)
{
    PyObject *jitter = self->jitter, *rng = self->rng, *p, *draw, *scaled;
    int r;
    if (require_member(jitter, "jitter") < 0)
        return -1;
    Py_INCREF(jitter);
    p = PyObject_GetAttr(jitter, s_p);
    r = p == NULL ? -1 : number_cmp(p, g_zero_float, Py_GT);
    Py_XDECREF(p);
    if (r > 0) {
        if (require_member(rng, "rng") < 0)
            r = -1;
        else {
            Py_INCREF(rng);
            draw = PyObject_CallMethodNoArgs(rng, s_random);
            Py_DECREF(rng);
            p = draw == NULL ? NULL : PyObject_GetAttr(jitter, s_p);
            r = p == NULL ? -1 : number_cmp(draw, p, Py_LT);
            Py_XDECREF(p);
            Py_XDECREF(draw);
        }
    }
    if (r > 0) {
        PyObject *factor = PyObject_GetAttr(jitter, s_factor);
        scaled = factor == NULL ? NULL : PyNumber_Multiply(*base, factor);
        Py_XDECREF(factor);
        if (scaled != NULL) {
            Py_SETREF(scaled, PyNumber_Long(scaled));
        }
        if (scaled == NULL)
            r = -1;
        else
            Py_SETREF(*base, scaled);
    }
    Py_DECREF(jitter);
    return r < 0 ? -1 : 0;
}

/* `sim.call_after(delay, fn[, arg])` (*arg* NULL: no argument): on the
 * C engine the entry goes straight onto its lanes, with the seq and
 * the checks `call_after` makes there. */
static int
schedule_after(PyObject *sim, PyObject *delay, PyObject *fn, PyObject *arg)
{
    int rc;
    Py_INCREF(sim);
    if (Py_IS_TYPE(sim, &SimType)) {
        long long d = PyLong_AsLongLong(delay);
        if (d == -1 && PyErr_Occurred())
            rc = -1;
        else if (d < 0) {
            PyErr_Format(g_sched_error, "negative delay %lld", d);
            rc = -1;
        }
        else
            rc = hop_call_at(sim, ((SimObject *)sim)->now + d, fn, arg, NULL);
    }
    else {
        PyObject *args[3] = {delay, fn, arg};
        rc = call_discard(sim, s_call_after, args, arg == NULL ? 2 : 3);
    }
    Py_DECREF(sim);
    return rc;
}

/* `self.sim.call_after(delay, self._finish_work, packet)`. */
static int
server_schedule_finish(ServerObject *self, PyObject *delay, PyObject *packet)
{
    PyObject *fn;
    int rc;
    if (require_member(self->host.sim, "sim") < 0)
        return -1;
    fn = bound_entry((PyObject *)self, s_finish_work,
                     (PyCFunction)server_finish_work, &self->finish_entry);
    if (fn == NULL)
        return -1;
    rc = schedule_after(self->host.sim, delay, fn, packet);
    Py_DECREF(fn);
    return rc;
}

/* --- The KV service replay ------------------------------------------ */

/* apps/service.py's `KvService`, with kvstore/'s `KvCostModel` and
 * `KeyValueStore` behind it and workloads/distributions.py's
 * `JitterModel` beside it: their methods as `configure_server`
 * registered them, and the `KvOp` members they compare against.  The
 * server runs a replay of one of these methods only while Python would
 * resolve the name to the registered function, and calls Python for
 * anything else (a subclass override, a class-level wrapper, an
 * instance attribute) and for any case a replay does not cover (a SET,
 * an unknown op, a key outside the keyspace, a SCAN count that is not
 * positive), so the Python classes stay the one definition and raise
 * their own errors.  A replayed GET or SCAN makes the checks and bumps
 * the counter the store's method would, but builds no value bytes: the
 * server discards the result. */
static struct {
    PyObject *base_service_ns, *execute, *response_size;  /* KvService */
    PyObject *service_ns;                                  /* KvCostModel */
    PyObject *get, *scan, *check_key, *base_value;         /* KeyValueStore */
    PyObject *apply;                                       /* JitterModel */
    PyObject *op_get, *op_scan, *op_set;                   /* KvOp */
} g_kv;

/* A replay of one registered method on (self, payload): a new
 * reference, or NULL without an error when it does not cover the case
 * (the caller then calls Python). */
typedef PyObject *(*kv_replay)(PyObject *self, PyObject *payload);

/* 1 and `obj.<name>` in *out* when that is an int that fits a long
 * long; 0 when it is anything else (the Python call decides); -1. */
static int
exact_ll_attr(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    int overflow = 1;
    if (value == NULL)
        return -1;
    if (PyLong_CheckExact(value))
        *out = PyLong_AsLongLongAndOverflow(value, &overflow);
    Py_DECREF(value);
    return !overflow;
}

/* `obj.<name> += 1`. */
static int
incr_attr(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name), *next;
    int r;
    if (value == NULL)
        return -1;
    next = PyNumber_InPlaceAdd(value, g_one);
    Py_DECREF(value);
    if (next == NULL)
        return -1;
    r = PyObject_SetAttr(obj, name, next);
    Py_DECREF(next);
    return r;
}

/* `a + b * c`, a new reference. */
static PyObject *
add_product(PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *product = PyNumber_Multiply(b, c), *sum;
    if (product == NULL)
        return NULL;
    sum = PyNumber_Add(a, product);
    Py_DECREF(product);
    return sum;
}

/* KvCostModel.service_ns: `get_ns`, `scan_base_ns + scan_per_item_ns *
 * count` or `set_ns` by the op. */
static PyObject *
kv_service_ns(PyObject *cost, PyObject *payload)
{
    PyObject *op = PyObject_GetAttr(payload, s_op), *res = NULL;
    if (op == NULL)
        return NULL;
    if (op == g_kv.op_get)
        res = PyObject_GetAttr(cost, s_get_ns);
    else if (op == g_kv.op_set)
        res = PyObject_GetAttr(cost, s_set_ns);
    else if (op == g_kv.op_scan) {
        PyObject *base = PyObject_GetAttr(cost, s_scan_base_ns), *per = NULL,
            *count = NULL;
        if (base != NULL && (per = PyObject_GetAttr(cost, s_scan_per_item_ns))
            != NULL && (count = PyObject_GetAttr(payload, s_count)) != NULL)
            res = add_product(base, per, count);
        Py_XDECREF(count);
        Py_XDECREF(per);
        Py_XDECREF(base);
    }
    Py_DECREF(op);
    return res;
}

/* KvService.base_service_ns: `self.cost_model.service_ns(payload)`,
 * replayed while that is KvCostModel's. */
static PyObject *
kv_base_service_ns(PyObject *service, PyObject *payload)
{
    PyObject *cost = PyObject_GetAttr(service, s_cost_model), *res = NULL;
    if (cost == NULL)
        return NULL;
    if (resolves_to_function(cost, s_service_ns, g_kv.service_ns))
        res = kv_service_ns(cost, payload);
    Py_DECREF(cost);
    return res;
}

/* KvService.execute for a GET or SCAN on a store whose `get`/`scan`,
 * `_check_key` and `_base_value` are KeyValueStore's: `_check_key`
 * (0 <= key < num_keys), a SCAN's positive count, then `gets`/`scans`
 * += 1.  None. */
static PyObject *
kv_execute(PyObject *service, PyObject *payload)
{
    PyObject *op = PyObject_GetAttr(payload, s_op), *store;
    long long key, num_keys, count = 1;
    int scan, known, r = 0;
    if (op == NULL)
        return NULL;
    scan = op == g_kv.op_scan;
    known = scan || op == g_kv.op_get;
    Py_DECREF(op);
    if (!known || (store = PyObject_GetAttr(service, s_store)) == NULL)
        return NULL;
    if (resolves_to_function(store, scan ? s_scan : s_get,
                             scan ? g_kv.scan : g_kv.get)
        && resolves_to_function(store, s_check_key, g_kv.check_key)
        && resolves_to_function(store, s_base_value, g_kv.base_value)
        && (r = exact_ll_attr(payload, s_key, &key)) > 0
        && (r = exact_ll_attr(store, s_num_keys, &num_keys)) > 0
        && (!scan || (r = exact_ll_attr(payload, s_count, &count)) > 0))
        r = 0 <= key && key < num_keys && count > 0
                ? (incr_attr(store, scan ? s_scans : s_gets) < 0 ? -1 : 1)
                : 0;
    Py_DECREF(store);
    return r > 0 ? Py_NewRef(Py_None) : NULL;
}

/* KvService.response_size: `RESPONSE_OVERHEAD + values *
 * store.VALUE_BYTES`, values being `min(count, 16)` for a SCAN, else 1. */
static PyObject *
kv_response_size(PyObject *service, PyObject *payload)
{
    PyObject *op = PyObject_GetAttr(payload, s_op), *values = NULL,
        *overhead = NULL, *store = NULL, *value_bytes = NULL, *size = NULL;
    int fewer;
    if (op == NULL)
        return NULL;
    if (op != g_kv.op_scan)
        values = Py_NewRef(g_one);
    else if ((values = PyObject_GetAttr(payload, s_count)) != NULL) {
        /* min(count, 16): 16 only when it is strictly smaller. */
        if ((fewer = PyObject_RichCompareBool(g_scan_values, values, Py_LT))
            < 0)
            Py_CLEAR(values);
        else if (fewer)
            Py_SETREF(values, Py_NewRef(g_scan_values));
    }
    Py_DECREF(op);
    if (values != NULL
        && (overhead = PyObject_GetAttr(service, s_response_overhead)) != NULL
        && (store = PyObject_GetAttr(service, s_store)) != NULL
        && (value_bytes = PyObject_GetAttr(store, s_value_bytes)) != NULL)
        size = add_product(overhead, values, value_bytes);
    Py_XDECREF(value_bytes);
    Py_XDECREF(store);
    Py_XDECREF(overhead);
    Py_XDECREF(values);
    return size;
}

/* `self.service.<name>(packet.payload)`, a new reference: *replay*
 * where Python would resolve the name to the registered *func* and the
 * replay covers the case, else the Python call. */
static PyObject *
service_call(ServerObject *self, PyObject *name, PyObject *func,
             kv_replay replay, PyObject *packet)
{
    PyObject *service = self->service, *payload, *res = NULL;
    if (require_member(service, "service") < 0
        || (payload = GET_PACKET(packet, payload)) == NULL)
        return NULL;
    Py_INCREF(service);
    if (resolves_to_function(service, name, func))
        res = replay(service, payload);
    if (res == NULL && !PyErr_Occurred())
        res = call_method(service, name, &payload, 1);
    Py_DECREF(service);
    Py_DECREF(payload);
    return res;
}

/* `self.jitter.apply(base, self.rng)`, which must not shorten
 * execution, a new reference: the inlined JitterModel.apply where
 * Python would run it. */
static PyObject *
server_jitter(ServerObject *self, PyObject *base)
{
    PyObject *jitter = self->jitter, *duration;
    int r;
    if (require_member(jitter, "jitter") < 0
        || require_member(self->rng, "rng") < 0)
        return NULL;
    if (resolves_to_function(jitter, s_apply, g_kv.apply)) {
        duration = Py_NewRef(base);
        if (server_inline_jitter(self, &duration) < 0)
            Py_CLEAR(duration);
    }
    else {
        PyObject *args[2] = {base, self->rng};
        Py_INCREF(args[1]);
        duration = call_method(jitter, s_apply, args, 2);
        Py_DECREF(args[1]);
    }
    r = duration == NULL ? -1 : PyObject_RichCompareBool(duration, base, Py_LT);
    if (r > 0)
        PyErr_SetString(g_experiment_error,
                        "jitter must never shorten execution");
    if (r != 0)
        Py_CLEAR(duration);
    return duration;
}

static PyObject *
server_start_work(ServerObject *self, PyObject *packet)
{
    PyObject *duration, *base;
    int r;
    if (self->trivial_spin) {
        PyObject *payload = GET_PACKET(packet, payload);
        if (payload == NULL)
            return NULL;
        duration = PyObject_GetAttr(payload, s_service_ns);
        Py_DECREF(payload);
        if (duration != NULL && server_inline_jitter(self, &duration) < 0)
            Py_CLEAR(duration);
    }
    else {
        base = service_call(self, s_base_service_ns, g_kv.base_service_ns,
                            kv_base_service_ns, packet);
        duration = base == NULL ? NULL : server_jitter(self, base);
        Py_XDECREF(base);
    }
    r = duration == NULL ? -1 : server_schedule_finish(self, duration, packet);
    Py_XDECREF(duration);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
server_finish_work(ServerObject *self, PyObject *packet)
{
    PyObject *next;
    int r;
    if (!self->trivial_spin) {
        PyObject *res = service_call(self, s_execute, g_kv.execute,
                                     kv_execute, packet);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    }
    /* Hand the next queued request to this worker thread first, so
     * the piggybacked state reflects the queue after the dispatch. */
    if ((r = truthy_member(self->queue, "queue")) < 0)
        return NULL;
    if (r) {
        if ((next = queue_call(self, s_popleft, NULL, 0)) == NULL)
            return NULL;
        r = self_discard((PyObject *)self, s_start_work,
                         (PyCFunction)server_start_work, next);
        Py_DECREF(next);
        if (r < 0)
            return NULL;
    }
    else
        self->busy_workers -= 1;
    if (self_discard((PyObject *)self, s_respond,
                     (PyCFunction)server_respond, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The response's STATE: `min(queue_len, 255) if self.netclone_mode
 * else 0`, a new reference. */
static PyObject *
server_state(ServerObject *self, Py_ssize_t queue_len)
{
    int r = truthy_member(self->netclone_mode, "netclone_mode");
    if (r < 0)
        return NULL;
    if (!r)
        return Py_NewRef(g_zero);
    return PyLong_FromSsize_t(queue_len < NC_STATE_MAX ? queue_len
                                                       : NC_STATE_MAX);
}

/* The response header: the request's own, stolen (the request's life
 * ends in `_respond` and clones carry their own copy), turned round. */
static int
server_turn_header(ServerObject *self, PyObject *nc, Py_ssize_t queue_len)
{
    PyObject *state;
    int r;
    if (SET_HEADER(nc, msg_type, g_msg_resp) < 0
        || require_member(self->server_id, "server_id") < 0
        || SET_HEADER(nc, sid, self->server_id) < 0
        || (state = server_state(self, queue_len)) == NULL)
        return -1;
    r = SET_HEADER(nc, state, state);
    Py_DECREF(state);
    return r;
}

/* The response's `acquire` arguments but the header, as new
 * references in *values* (which start NULL).  dst: the coordinator
 * (LAEDGE) or the requester; dport: the NetClone port a request names,
 * else the plain request's sport. */
static int
response_values(ServerObject *self, PyObject *request, PyObject *nc,
                PyObject **values)
{
    PyObject *reply_to = self->reply_to_ip, *size = self->fixed_resp_size;
    if (require_member(reply_to, "reply_to_ip") < 0)
        return -1;
    values[A_DST] = reply_to != Py_None ? Py_NewRef(reply_to)
                                        : GET_PACKET(request, src);
    if (values[A_DST] == NULL)
        return -1;
    values[A_DPORT] = nc != Py_None ? GET_PACKET(request, dport)
                                    : GET_PACKET(request, sport);
    if (values[A_DPORT] == NULL
        || require_member(size, "_fixed_resp_size") < 0)
        return -1;
    values[A_SIZE] = size != Py_None
                         ? Py_NewRef(size)
                         : service_call(self, s_response_size,
                                        g_kv.response_size, kv_response_size,
                                        request);
    if (values[A_SIZE] == NULL || require_member(self->host.ip, "ip") < 0)
        return -1;
    values[A_SRC] = Py_NewRef(self->host.ip);
    values[A_SPORT] = Py_NewRef(g_udp_port);
    if ((values[A_PAYLOAD] = GET_PACKET(request, payload)) == NULL)
        return -1;
    values[A_CREATED_AT] = GET_PACKET(request, created_at);
    return values[A_CREATED_AT] == NULL ? -1 : 0;
}

static PyObject *
server_respond(ServerObject *self, PyObject *request)
{
    PyObject *values[N_ACQUIRE_ARGS] = {NULL};
    PyObject *nc, *pool, *response = NULL;
    Py_ssize_t queue_len;
    int i;
    if (require_member(self->queue, "queue") < 0
        || (queue_len = PyObject_Size(self->queue)) < 0)
        return NULL;
    self->state_samples_total += 1;
    if (queue_len == 0)
        self->state_samples_zero += 1;
    if ((nc = GET_PACKET(request, nc)) == NULL)
        return NULL;
    values[A_NC] = nc;
    pool = self->host.packet_pool;
    if ((nc == Py_None || server_turn_header(self, nc, queue_len) == 0)
        && response_values(self, request, nc, values) == 0
        && require_member(pool, "packet_pool") == 0) {
        const char *outer = g_acquire_site;
        Py_INCREF(pool);
        g_acquire_site = "server.py:ServerCore";
        response = acquire_from(pool, values);
        g_acquire_site = outer;
        Py_DECREF(pool);
    }
    for (i = 0; i < N_ACQUIRE_ARGS; i++)
        Py_XDECREF(values[i]);
    if (response == NULL)
        return NULL;
    /* The response now owns the payload reference; the request's life
     * on the wire is over. */
    if (release_packet(request) < 0
        || server_count(self, s_responses_sent) < 0
        || self_discard((PyObject *)self, s_send, (PyCFunction)host_send,
                        response) < 0) {
        Py_DECREF(response);
        return NULL;
    }
    Py_DECREF(response);
    Py_RETURN_NONE;
}

#define SERVER_OBJECTS(X) \
    X(server_id) X(service) X(jitter) X(rng) X(netclone_mode) \
    X(drop_stale_clones) X(reply_to_ip) X(queue) X(counters) X(counts) \
    X(fixed_resp_size) X(handle_entry) X(finish_entry)

static int
server_traverse(ServerObject *self, visitproc visit, void *arg)
{
#define VISIT(field) Py_VISIT(self->field);
    SERVER_OBJECTS(VISIT)
#undef VISIT
    return host_traverse(&self->host, visit, arg);
}

static int
server_clear(ServerObject *self)
{
#define CLEAR(field) Py_CLEAR(self->field);
    SERVER_OBJECTS(CLEAR)
#undef CLEAR
    return host_clear(&self->host);
}

static void
server_dealloc(ServerObject *self)
{
    PyObject_GC_UnTrack(self);
    server_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

#define SERVER_OBJECT(name, field) \
    {name, T_OBJECT_EX, offsetof(ServerObject, field), 0, NULL}
#define SERVER_LONG(name, field) \
    {name, T_LONGLONG, offsetof(ServerObject, field), 0, NULL}
static PyMemberDef server_members[] = {
    SERVER_OBJECT("server_id", server_id),
    SERVER_OBJECT("service", service),
    SERVER_OBJECT("jitter", jitter),
    SERVER_OBJECT("rng", rng),
    SERVER_OBJECT("netclone_mode", netclone_mode),
    SERVER_OBJECT("drop_stale_clones", drop_stale_clones),
    SERVER_OBJECT("reply_to_ip", reply_to_ip),
    SERVER_OBJECT("queue", queue),
    SERVER_OBJECT("counters", counters),
    SERVER_OBJECT("_counts", counts),
    SERVER_OBJECT("_fixed_resp_size", fixed_resp_size),
    SERVER_LONG("num_workers", num_workers),
    SERVER_LONG("busy_workers", busy_workers),
    SERVER_LONG("state_samples_zero", state_samples_zero),
    SERVER_LONG("state_samples_total", state_samples_total),
    {"_trivial_spin", T_BOOL, offsetof(ServerObject, trivial_spin), 0, NULL},
    {NULL}
};
#undef SERVER_LONG
#undef SERVER_OBJECT

static PyMethodDef server_methods[] = {
    {"handle", (PyCFunction)server_handle, METH_O,
     "Accept, drop (a stale clone, a non-request) or queue packet."},
    {"_start_work", (PyCFunction)server_start_work, METH_O,
     "Occupy a worker thread for packet's (jittered) service time."},
    {"_finish_work", (PyCFunction)server_finish_work, METH_O,
     "Execute, dispatch the next queued request, then respond."},
    {"_respond", (PyCFunction)server_respond, METH_O,
     "Send the response, with the queue length piggybacked as STATE."},
    {NULL}
};

static PyTypeObject ServerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.ServerCore",
    .tp_basicsize = sizeof(ServerObject),
    .tp_dealloc = (destructor)server_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of core.server.RpcServer: the request path "
              "(accept, clone drop, dispatch, respond).",
    .tp_traverse = (traverseproc)server_traverse,
    .tp_clear = (inquiry)server_clear,
    .tp_methods = server_methods,
    .tp_members = server_members,
    .tp_base = &HostType,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* RecorderCore: the latency recorder's per-request bookkeeping        */
/* ------------------------------------------------------------------ */

/* metrics/latency.py's `note_sent` and `record`: the C twin of the
 * pure-Python `_RecorderCore`, which stays the reference.
 * `LatencyRecorder` subclasses whichever is live.  The window tests,
 * the two counts, the running sum and an exact-mode sample stay in C;
 * a set `completion_monitor` (its `note`) and sketch mode (the
 * sketch's `add`) are called back.  Times are ints in int64 range;
 * `_sum_ns` stays a Python int, unbounded and writable as the
 * reference's. */

typedef struct {
    PyObject_HEAD
    PyObject *latencies;          /* `latencies_ns`: array('q') or None */
    PyObject *sketch;             /* a LatencySketch or None */
    PyObject *completion_monitor; /* an IntervalMonitor or None */
    PyObject *sum_ns;             /* `_sum_ns`, an int */
    long long warmup_ns;
    long long end_ns;             /* meaningful when `has_end` */
    long long sent_in_window;
    long long completed_in_window;
    char has_end;
} RecorderObject;

static PyTypeObject RecorderType;
static PyObject *s_note, *s_add, *s_send_time_ns, *s_done_time_ns;

/* The window test `warmup_ns <= t < end_ns` (no end: unbounded). */
static int
recorder_in_window(RecorderObject *self, long long t)
{
    return t >= self->warmup_ns && (!self->has_end || t < self->end_ns);
}

/* `note_sent(t)`. */
static void
recorder_note_sent_at(RecorderObject *self, long long t)
{
    if (recorder_in_window(self, t))
        self->sent_in_window += 1;
}

/* `record(send, done)`. */
static int
recorder_record_at(RecorderObject *self, long long send, long long done)
{
    PyObject *sink, *name, *value, *sum;
    long long latency;
    int rc;
    if (done < send) {
        PyErr_SetString(g_experiment_error, "completion before send");
        return -1;
    }
    if (require_member(self->completion_monitor, "completion_monitor") < 0)
        return -1;
    if (self->completion_monitor != Py_None) {
        if ((value = PyLong_FromLongLong(done)) == NULL)
            return -1;
        rc = call_discard(self->completion_monitor, s_note, &value, 1);
        Py_DECREF(value);
        if (rc < 0)
            return -1;
    }
    if (recorder_in_window(self, done))
        self->completed_in_window += 1;
    if (!recorder_in_window(self, send))
        return 0;
    if (__builtin_sub_overflow(done, send, &latency)) {
        PyErr_SetString(PyExc_OverflowError, "latency out of int64 range");
        return -1;
    }
    if (require_member(self->sum_ns, "_sum_ns") < 0
        || require_member(self->latencies, "latencies_ns") < 0
        || (value = PyLong_FromLongLong(latency)) == NULL)
        return -1;
    /* `self._sum_ns += latency`. */
    if ((sum = PyNumber_Add(self->sum_ns, value)) == NULL) {
        Py_DECREF(value);
        return -1;
    }
    Py_SETREF(self->sum_ns, sum);
    sink = self->latencies;
    name = s_append;
    if (sink == Py_None) {
        sink = self->sketch;
        name = s_add;
    }
    rc = require_member(sink, "sketch") < 0
             ? -1 : call_discard(sink, name, &value, 1);
    Py_DECREF(value);
    return rc;
}

/* A time argument: an int in int64 range. */
static int
recorder_time(PyObject *arg, long long *out)
{
    *out = PyLong_AsLongLong(arg);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* `note_sent(send_time_ns)`. */
static PyObject *
recorder_note_sent(RecorderObject *self, PyObject *const *args,
                   Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *values[1] = {NULL};
    long long t;
    if (bind_args("note_sent", &s_send_time_ns, 1, 1, args, nargs, kwnames,
                  NULL, values) < 0
        || recorder_time(values[0], &t) < 0)
        return NULL;
    recorder_note_sent_at(self, t);
    Py_RETURN_NONE;
}

/* `record(send_time_ns, done_time_ns)`. */
static PyObject *
recorder_record(RecorderObject *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *names[2] = {s_send_time_ns, s_done_time_ns},
        *values[2] = {NULL, NULL};
    long long send, done;
    if (bind_args("record", names, 2, 2, args, nargs, kwnames, NULL,
                  values) < 0
        || recorder_time(values[0], &send) < 0
        || recorder_time(values[1], &done) < 0
        || recorder_record_at(self, send, done) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
recorder_get_end(RecorderObject *self, void *Py_UNUSED(closure))
{
    if (!self->has_end)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(self->end_ns);
}

static int
recorder_set_end(RecorderObject *self, PyObject *value,
                 void *Py_UNUSED(closure))
{
    long long end;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete end_ns");
        return -1;
    }
    if (value == Py_None) {
        self->has_end = 0;
        return 0;
    }
    if (recorder_time(value, &end) < 0)
        return -1;
    self->end_ns = end;
    self->has_end = 1;
    return 0;
}

#define RECORDER_OBJECTS(X) \
    X(latencies) X(sketch) X(completion_monitor) X(sum_ns)

static int
recorder_traverse(RecorderObject *self, visitproc visit, void *arg)
{
#define VISIT(field) Py_VISIT(self->field);
    RECORDER_OBJECTS(VISIT)
#undef VISIT
    return 0;
}

static int
recorder_clear(RecorderObject *self)
{
#define CLEAR(field) Py_CLEAR(self->field);
    RECORDER_OBJECTS(CLEAR)
#undef CLEAR
    return 0;
}

static void
recorder_dealloc(RecorderObject *self)
{
    PyObject_GC_UnTrack(self);
    recorder_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef recorder_members[] = {
    {"latencies_ns", T_OBJECT_EX, offsetof(RecorderObject, latencies), 0, NULL},
    {"sketch", T_OBJECT_EX, offsetof(RecorderObject, sketch), 0, NULL},
    {"completion_monitor", T_OBJECT_EX,
     offsetof(RecorderObject, completion_monitor), 0, NULL},
    {"_sum_ns", T_OBJECT_EX, offsetof(RecorderObject, sum_ns), 0, NULL},
    {"warmup_ns", T_LONGLONG, offsetof(RecorderObject, warmup_ns), 0, NULL},
    {"sent_in_window", T_LONGLONG, offsetof(RecorderObject, sent_in_window),
     0, NULL},
    {"completed_in_window", T_LONGLONG,
     offsetof(RecorderObject, completed_in_window), 0, NULL},
    {NULL}
};

static PyGetSetDef recorder_getset[] = {
    {"end_ns", (getter)recorder_get_end, (setter)recorder_set_end,
     "End of the measurement window in ns, or None.", NULL},
    {NULL}
};

static PyMethodDef recorder_methods[] = {
    {"note_sent", (PyCFunction)(void (*)(void))recorder_note_sent,
     METH_FASTCALL | METH_KEYWORDS, "Count one request sent at send_time_ns."},
    {"record", (PyCFunction)(void (*)(void))recorder_record,
     METH_FASTCALL | METH_KEYWORDS,
     "Record a completed request (first response received)."},
    {NULL}
};

static PyTypeObject RecorderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.RecorderCore",
    .tp_basicsize = sizeof(RecorderObject),
    .tp_dealloc = (destructor)recorder_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of metrics.latency.LatencyRecorder: the window, the "
              "counts, the running sum and the samples.",
    .tp_traverse = (traverseproc)recorder_traverse,
    .tp_clear = (inquiry)recorder_clear,
    .tp_methods = recorder_methods,
    .tp_members = recorder_members,
    .tp_getset = recorder_getset,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* ClientCore: the open-loop client's request path                     */
/* ------------------------------------------------------------------ */

/* apps/client.py's `_send_one`, `handle`, `_refill_arrivals`,
 * `_next_gap` and `_flush_arrivals`: the C twin of the pure-Python
 * `_ClientCore`, which stays the reference.  `OpenLoopClient` combines
 * `Host` with whichever is live, so one object holds the NIC slots and
 * the client state.  Two packet builders live here too, as the C twins
 * of `NetCloneClient.build_packets` (core/client.py) and
 * `BaselineClient.build_packets` (baselines/random_lb.py); those
 * classes name them as their `build_packets` when the C core is live.
 *
 * The path keeps the reference's every observable: the same draws
 * from the same RNG in the same order (per record: the workload's
 * request, then the packets, then the gap), one `call_after` seq per
 * send, the same `_seq`/`_predrawn_seq` bookkeeping, and the Python
 * collaborators called as before (the workload's request chunk, its
 * request size unless it declares `fixed_request_size`, an arrival
 * process's `next_gap`, and the recorder's
 * `note_sent` and `record` unless they are RecorderCore's own, which
 * run here).  On an exact `random.Random` the draws
 * are replayed from its two primitives, `random()` and
 * `getrandbits(k)`, exactly as CPython's `randrange`, `choice` and
 * `expovariate` make them; any other RNG gets the Python calls.  Each
 * of the client's own methods, `build_packets`, `send`, `release` and
 * `acquire` is called in C only where Python would resolve the name to
 * the C method, so class-level wrappers, subclass overrides (the
 * reliable client's) and the sanitizer see every call. */

#define NC_VIRTUAL_SERVICE_IP 167772417LL  /* core/constants.py, 10.0.1.1 */
#define PLAIN_RPC_PORT 7000                /* baselines/random_lb.py */

static PyObject *s_send_one, *s_refill_arrivals, *s_next_gap,
    *s_process_next_gap, *s_flush_arrivals, *s_build_packets, *s_arrival_chunk,
    *s_make_request_chunk, *s_make_request, *s_request_size, *s_note_sent,
    *s_record, *s_client_id, *s_client_seq, *s_write, *s_randrange,
    *s_choice, *s_expovariate, *s_sample, *s_pairs, *s_split, *s_p_local,
    *s_group_table, *s_num_filter_tables, *s_server_ips, *s_wire_size;
static PyObject *g_random_type = NULL;    /* random.Random */
static PyObject *g_rng_random = NULL;     /* its `random` method */
static PyObject *g_rng_getrandbits = NULL;  /* its `getrandbits` method */
static PyObject *g_header_type = NULL;    /* core.header.NetCloneHeader */
static PyObject *g_group_table_type = NULL;  /* core.placement.GroupTable */
static PyObject *g_wire_size = NULL;      /* NetCloneHeader.WIRE_SIZE */
static PyObject *g_one_float = NULL;      /* 1.0, expovariate's rate */
static PyObject *g_virtual_ip = NULL;     /* NC_VIRTUAL_SERVICE_IP */
static PyObject *g_plain_port = NULL;     /* PLAIN_RPC_PORT */

static PyObject *client_handle(ClientObject *self, PyObject *packet);
static PyObject *client_send_one(ClientObject *self, PyObject *unused);
static PyObject *client_refill_arrivals(ClientObject *self, PyObject *unused);
static PyObject *client_next_gap(ClientObject *self, PyObject *unused);
static PyObject *client_netclone_packets(ClientObject *self,
                                         PyObject *request);
static PyObject *client_baseline_packets(ClientObject *self,
                                         PyObject *request);

/* --- RNG replay ----------------------------------------------------- */

/* Whether C may replay *rng*'s draws: it is exactly `random.Random`. */
static int
rng_is_stock(PyObject *rng)
{
    return g_random_type != NULL && (PyObject *)Py_TYPE(rng) == g_random_type;
}

/* `rng.random()` on a stock Random, a new reference. */
static PyObject *
rng_random(PyObject *rng)
{
    return PyObject_Vectorcall(g_rng_random, &rng, 1, NULL);
}

/* `rng._randbelow(n)` on a stock Random for 1 <= n: CPython's
 * `_randbelow_with_getrandbits` (k = n.bit_length(); draw
 * `getrandbits(k)` until the value is below n). */
static int
rng_below(PyObject *rng, long long n, long long *out)
{
    PyObject *k, *args[2], *bits;
    long long r;
    int nbits = 0;
    while (nbits < 63 && (n >> nbits) != 0)
        nbits++;
    if ((k = PyLong_FromLong(nbits)) == NULL)
        return -1;
    args[0] = rng;
    args[1] = k;
    do {
        bits = PyObject_Vectorcall(g_rng_getrandbits, args, 2, NULL);
        if (bits == NULL) {
            Py_DECREF(k);
            return -1;
        }
        r = PyLong_AsLongLong(bits);
        Py_DECREF(bits);
        if (r == -1 && PyErr_Occurred()) {
            Py_DECREF(k);
            return -1;
        }
    } while (r >= n);
    Py_DECREF(k);
    *out = r;
    return 0;
}

/* A positive int that fits a long long, as one; 0 for anything else
 * (which then takes the Python call and its checks). */
static long long
positive_ll(PyObject *n)
{
    int overflow;
    long long value;
    if (!PyLong_CheckExact(n))
        return 0;
    value = PyLong_AsLongLongAndOverflow(n, &overflow);
    return overflow || value < 1 ? 0 : value;
}

/* `rng.randrange(n)`, a new reference. */
static PyObject *
rng_randrange(PyObject *rng, PyObject *n)
{
    long long bound = rng_is_stock(rng) ? positive_ll(n) : 0, r;
    if (bound == 0)
        return call_method(rng, s_randrange, &n, 1);
    if (rng_below(rng, bound, &r) < 0)
        return NULL;
    return PyLong_FromLongLong(r);
}

/* `rng.choice(seq)`, a new reference: replayed for a non-empty list or
 * tuple, called for anything else. */
static PyObject *
rng_choice(PyObject *rng, PyObject *seq)
{
    Py_ssize_t n;
    long long r;
    if (!rng_is_stock(rng)
        || !(PyList_CheckExact(seq) || PyTuple_CheckExact(seq))
        || (n = PySequence_Fast_GET_SIZE(seq)) == 0)
        return call_method(rng, s_choice, &seq, 1);
    if (rng_below(rng, n, &r) < 0)
        return NULL;
    return PySequence_GetItem(seq, (Py_ssize_t)r);
}

/* `table.sample(rng)` (core/placement.py), a new reference: replayed
 * for a stock GroupTable and a stock Random, called otherwise.  A
 * uniform table spends one `randrange`; a sectioned one a `random()`
 * to pick the section, then a `randrange` inside it. */
static PyObject *
group_sample(PyObject *table, PyObject *rng)
{
    PyObject *pairs, *p_local, *draw;
    Py_ssize_t total;
    long long split, r;
    int local;
    if (g_group_table_type == NULL
        || (PyObject *)Py_TYPE(table) != g_group_table_type
        || !rng_is_stock(rng))
        return call_method(table, s_sample, &rng, 1);
    if ((pairs = PyObject_GetAttr(table, s_pairs)) == NULL)
        return NULL;
    total = PyObject_Size(pairs);
    Py_DECREF(pairs);
    if (total < 0 || long_attr(table, s_split, &split) < 0)
        return NULL;
    if (total < 1)
        return call_method(table, s_sample, &rng, 1);
    if (split >= total || split <= 0) {
        if (rng_below(rng, total, &r) < 0)
            return NULL;
        return PyLong_FromLongLong(r);
    }
    if ((draw = rng_random(rng)) == NULL)
        return NULL;
    p_local = PyObject_GetAttr(table, s_p_local);
    local = p_local == NULL ? -1 : number_cmp(draw, p_local, Py_LT);
    Py_XDECREF(p_local);
    Py_DECREF(draw);
    if (local < 0)
        return NULL;
    if (local) {
        if (rng_below(rng, split, &r) < 0)
            return NULL;
        return PyLong_FromLongLong(r);
    }
    if (rng_below(rng, total - split, &r) < 0)
        return NULL;
    return PyLong_FromLongLong(split + r);
}

/* --- Calls the reference makes on itself ----------------------------- */

/* `self.build_packets(request)`: either C builder, or the Python one. */
static PyObject *
client_build(ClientObject *self, PyObject *request)
{
    if (resolves_to((PyObject *)self, s_build_packets,
                    (PyCFunction)client_netclone_packets))
        return client_netclone_packets(self, request);
    return self_call((PyObject *)self, s_build_packets,
                     (PyCFunction)client_baseline_packets, request);
}

/* `[self.packet_pool.acquire(self.ip, *values)]` (*values* from the
 * destination on), tagged as the client's. */
static PyObject *
client_acquire_list(ClientObject *self, PyObject *const *values)
{
    PyObject *pool = self->host.packet_pool, *ip = self->host.ip, *packet,
        *list, *args[N_ACQUIRE_ARGS];
    const char *outer = g_acquire_site;
    if (require_member(pool, "packet_pool") < 0
        || require_member(ip, "ip") < 0)
        return NULL;
    Py_INCREF(pool);
    Py_INCREF(ip);
    args[A_SRC] = ip;
    memcpy(args + A_DST, values, (N_ACQUIRE_ARGS - A_DST) * sizeof(PyObject *));
    g_acquire_site = "client.py:ClientCore";
    packet = acquire_from(pool, args);
    g_acquire_site = outer;
    Py_DECREF(ip);
    Py_DECREF(pool);
    if (packet == NULL)
        return NULL;
    list = PyList_New(1);
    if (list == NULL) {
        Py_DECREF(packet);
        return NULL;
    }
    PyList_SET_ITEM(list, 0, packet);
    return list;
}

/* The request's wire size, a new reference: the workload's
 * `fixed_request_size` as the constructor read it, or, where that is
 * None, `self.workload.request_size(request)`. */
static PyObject *
client_request_size(ClientObject *self, PyObject *request)
{
    PyObject *size = self->fixed_req_size;
    if (require_member(size, "_fixed_req_size") < 0)
        return NULL;
    if (size != Py_None)
        return Py_NewRef(size);
    if (require_member(self->workload, "workload") < 0)
        return NULL;
    return call_method(self->workload, s_request_size, &request, 1);
}

/* A NetClone request header, `NetCloneHeader(MSG_REQ, 0, grp, 0, 0,
 * clo, idx, 0)`, built in place (`configure_client` admits only a
 * header class that adds no constructor of its own). */
static PyObject *
client_new_header(PyObject *grp, long clo, PyObject *idx)
{
    PyTypeObject *type = (PyTypeObject *)g_header_type;
    PyObject *values[N_HEADER_FIELDS] = {
        NULL, g_zero, grp, g_zero, g_zero, NULL, idx, g_zero};
    PyObject *header, **fields;
    int i;
    if (type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_ccore.configure_client() was not called");
        return NULL;
    }
    if ((header = type->tp_alloc(type, 0)) == NULL)
        return NULL;
    fields = header_fields((HeaderObject *)header);
    for (i = 0; i < N_HEADER_FIELDS; i++)
        fields[i] = Py_XNewRef(values[i]);
    if ((fields[0] = PyLong_FromLong(NC_MSG_REQ)) == NULL
        || (fields[5] = PyLong_FromLong(clo)) == NULL) {
        Py_DECREF(header);
        return NULL;
    }
    return header;
}

/* --- The two builders ------------------------------------------------ */

/* core/client.py's `NetCloneClient.build_packets`: one request to the
 * virtual service IP, with a group ID from the local ToR's table, the
 * CLO the request's `write` flag asks for and a random filter-table
 * index (in that draw order). */
static PyObject *
client_netclone_packets(ClientObject *self, PyObject *request)
{
    PyObject *table, *grp = NULL, *write = NULL, *tables, *idx = NULL,
        *header = NULL, *size = NULL, *wire = NULL, *packets = NULL;
    PyObject *rng = self->rng;
    int is_write = 0;
    if (require_member(rng, "rng") < 0)
        return NULL;
    Py_INCREF(rng);
    if ((table = PyObject_GetAttr((PyObject *)self, s_group_table)) != NULL) {
        grp = group_sample(table, rng);
        Py_DECREF(table);
    }
    /* `getattr(request, "write", False)`. */
    if (grp == NULL || _PyObject_LookupAttr(request, s_write, &write) < 0
        || (write != NULL && (is_write = PyObject_IsTrue(write)) < 0))
        goto done;
    if ((tables = PyObject_GetAttr((PyObject *)self, s_num_filter_tables))
        == NULL)
        goto done;
    idx = rng_randrange(rng, tables);
    Py_DECREF(tables);
    if (idx == NULL
        || (header = client_new_header(
                grp, is_write ? NC_CLO_NEVER_CLONE : NC_CLO_NOT_CLONED,
                idx)) == NULL
        || (size = client_request_size(self, request)) == NULL
        || (wire = PyNumber_Add(size, g_wire_size)) == NULL)
        goto done;
    {
        PyObject *values[] = {
            g_virtual_ip, g_udp_port, g_udp_port, wire, request, header,
            g_zero};
        packets = client_acquire_list(self, values);
    }
done:
    Py_XDECREF(wire);
    Py_XDECREF(size);
    Py_XDECREF(header);
    Py_XDECREF(idx);
    Py_XDECREF(write);
    Py_XDECREF(grp);
    Py_DECREF(rng);
    return packets;
}

/* baselines/random_lb.py's `BaselineClient.build_packets`: one plain
 * request to a uniformly chosen server. */
static PyObject *
client_baseline_packets(ClientObject *self, PyObject *request)
{
    PyObject *rng = self->rng, *servers, *destination, *size,
        *packets = NULL;
    if (require_member(rng, "rng") < 0
        || (servers = PyObject_GetAttr((PyObject *)self, s_server_ips)) == NULL)
        return NULL;
    Py_INCREF(rng);
    destination = rng_choice(rng, servers);
    Py_DECREF(servers);
    Py_DECREF(rng);
    if (destination == NULL)
        return NULL;
    if ((size = client_request_size(self, request)) != NULL) {
        PyObject *values[] = {
            destination, g_plain_port, g_plain_port, size, request, Py_None,
            g_zero};
        packets = client_acquire_list(self, values);
    }
    Py_XDECREF(size);
    Py_DECREF(destination);
    return packets;
}

/* --- Arrivals -------------------------------------------------------- */

/* `int(x) + 1` for a gap or service time x in ns. */
static PyObject *
gap_from_double(double x)
{
    PyObject *whole, *gap;
    if (x > -9.0e18 && x < 9.0e18)
        return PyLong_FromLongLong((long long)x + 1);
    if ((whole = PyLong_FromDouble(x)) == NULL)
        return NULL;
    gap = PyNumber_Add(whole, g_one);
    Py_DECREF(whole);
    return gap;
}

/* `arrival_process.next_gap()` when there is one, else
 * `int(rng.expovariate(1.0) * self._mean_gap_ns) + 1`; on a stock
 * Random, expovariate(1.0) is `-log(1.0 - rng.random())`. */
static PyObject *
client_next_gap(ClientObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *process = self->arrival_process, *rng = self->rng, *draw,
        *mean, *scaled, *gap;
    if (require_member(process, "arrival_process") < 0)
        return NULL;
    if (process != Py_None)
        return call_method(process, s_process_next_gap, NULL, 0);
    if (require_member(rng, "rng") < 0)
        return NULL;
    Py_INCREF(rng);
    if (rng_is_stock(rng)) {
        draw = rng_random(rng);
        Py_DECREF(rng);
        if (draw == NULL)
            return NULL;
        gap = gap_from_double(-log(1.0 - PyFloat_AsDouble(draw))
                              * self->mean_gap_ns);
        Py_DECREF(draw);
        return gap;
    }
    draw = call_method(rng, s_expovariate, &g_one_float, 1);
    Py_DECREF(rng);
    if (draw == NULL)
        return NULL;
    mean = PyFloat_FromDouble(self->mean_gap_ns);
    scaled = mean == NULL ? NULL : PyNumber_Multiply(draw, mean);
    Py_XDECREF(mean);
    Py_DECREF(draw);
    if (scaled == NULL)
        return NULL;
    Py_SETREF(scaled, PyNumber_Long(scaled));
    if (scaled == NULL)
        return NULL;
    gap = PyNumber_Add(scaled, g_one);
    Py_DECREF(scaled);
    return gap;
}

/* The workload's requests for the next chunk: `make_request_chunk` in
 * one call when the workload has it, else one `make_request` per
 * seq.  A new reference. */
static PyObject *
client_requests(ClientObject *self, PyObject *chunk)
{
    PyObject *workload = self->workload, *client_id = self->client_id,
        *make_chunk, *requests = NULL;
    Py_ssize_t n, i;
    if (require_member(workload, "workload") < 0
        || require_member(client_id, "client_id") < 0)
        return NULL;
    Py_INCREF(workload);
    Py_INCREF(client_id);
    if (_PyObject_LookupAttr(workload, s_make_request_chunk, &make_chunk) < 0)
        goto done;
    if (make_chunk != NULL && make_chunk != Py_None) {
        PyObject *first = PyLong_FromLongLong(self->predrawn_seq + 1);
        if (first != NULL) {
            PyObject *args[3] = {client_id, first, chunk};
            requests = PyObject_Vectorcall(make_chunk, args, 3, NULL);
            Py_DECREF(first);
        }
        Py_DECREF(make_chunk);
        goto done;
    }
    Py_XDECREF(make_chunk);
    if ((n = PyNumber_AsSsize_t(chunk, PyExc_OverflowError)) == -1
        && PyErr_Occurred())
        goto done;
    if ((requests = PyList_New(0)) == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        PyObject *seq = PyLong_FromLongLong(self->predrawn_seq + 1 + i),
            *request = NULL;
        if (seq != NULL) {
            PyObject *args[2] = {client_id, seq};
            request = call_method(workload, s_make_request, args, 2);
            Py_DECREF(seq);
        }
        if (request == NULL || PyList_Append(requests, request) < 0) {
            Py_XDECREF(request);
            Py_CLEAR(requests);
            goto done;
        }
        Py_DECREF(request);
    }
done:
    Py_DECREF(client_id);
    Py_DECREF(workload);
    return requests;
}

/* One arrival record, `(seq, request, self.build_packets(request),
 * self._next_gap())`, a new reference. */
static PyObject *
client_record(ClientObject *self, long long seq, PyObject *request)
{
    PyObject *seq_obj, *packets, *gap, *record;
    if ((packets = client_build(self, request)) == NULL)
        return NULL;
    if ((gap = self_call((PyObject *)self, s_next_gap,
                         (PyCFunction)client_next_gap, NULL)) == NULL) {
        Py_DECREF(packets);
        return NULL;
    }
    if ((seq_obj = PyLong_FromLongLong(seq)) == NULL) {
        Py_DECREF(gap);
        Py_DECREF(packets);
        return NULL;
    }
    record = PyTuple_Pack(4, seq_obj, request, packets, gap);
    Py_DECREF(seq_obj);
    Py_DECREF(packets);
    Py_DECREF(gap);
    return record;
}

static PyObject *
client_refill_arrivals(ClientObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *chunk, *requests, *iter, *request, *buf, *record;
    long long seq = self->predrawn_seq;
    if ((chunk = PyObject_GetAttr((PyObject *)self, s_arrival_chunk)) == NULL)
        return NULL;
    requests = client_requests(self, chunk);
    Py_DECREF(chunk);
    if (requests == NULL)
        return NULL;
    iter = PyObject_GetIter(requests);
    Py_DECREF(requests);
    if (iter == NULL || (buf = PyList_New(0)) == NULL) {
        Py_XDECREF(iter);
        return NULL;
    }
    while ((request = PyIter_Next(iter)) != NULL) {
        seq += 1;
        record = client_record(self, seq, request);
        Py_DECREF(request);
        if (record == NULL || PyList_Append(buf, record) < 0) {
            Py_XDECREF(record);
            break;
        }
        Py_DECREF(record);
    }
    Py_DECREF(iter);
    if (PyErr_Occurred()) {
        Py_DECREF(buf);
        return NULL;
    }
    self->predrawn_seq = seq;
    Py_XSETREF(self->arrivals, buf);
    self->arrival_idx = 0;
    Py_RETURN_NONE;
}

static PyObject *
client_flush_arrivals(ClientObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *arrivals = self->arrivals, *slice, *rest, *empty;
    Py_ssize_t i;
    if (require_member(arrivals, "_arrivals") < 0)
        return NULL;
    /* `for record in self._arrivals[self._arrival_idx:]`. */
    slice = PySequence_GetSlice(arrivals, self->arrival_idx, PY_SSIZE_T_MAX);
    if (slice == NULL)
        return NULL;
    rest = PySequence_Fast(slice, "_arrivals must be a sequence");
    Py_DECREF(slice);
    if (rest == NULL)
        return NULL;
    for (i = 0; i < PySequence_Fast_GET_SIZE(rest); i++) {
        PyObject *record = PySequence_Fast_GET_ITEM(rest, i), *packets, *iter,
            *packet;
        int rc = 0;
        if (record == Py_None)
            continue;
        if ((packets = PySequence_GetItem(record, 2)) == NULL
            || (iter = PyObject_GetIter(packets)) == NULL) {
            Py_XDECREF(packets);
            Py_DECREF(rest);
            return NULL;
        }
        Py_DECREF(packets);
        while (rc == 0 && (packet = PyIter_Next(iter)) != NULL) {
            rc = release_packet(packet);
            Py_DECREF(packet);
        }
        Py_DECREF(iter);
        if (rc < 0 || PyErr_Occurred()) {
            Py_DECREF(rest);
            return NULL;
        }
    }
    Py_DECREF(rest);
    if ((empty = PyList_New(0)) == NULL)
        return NULL;
    Py_XSETREF(self->arrivals, empty);
    self->arrival_idx = 0;
    /* Flushed records were never sent, so their sequence numbers are
     * free again; re-drawing them keeps sent seqs contiguous. */
    self->predrawn_seq = self->seq;
    Py_RETURN_NONE;
}

/* --- Send and receive ------------------------------------------------ */

/* `self.sim.now >= self.stop_at_ns` (false when it is None). */
static int
client_stopped(ClientObject *self, long long now)
{
    PyObject *stop = self->stop_at_ns, *now_obj;
    int overflow, r;
    long long at;
    if (require_member(stop, "stop_at_ns") < 0)
        return -1;
    if (stop == Py_None)
        return 0;
    if (PyLong_CheckExact(stop)) {
        at = PyLong_AsLongLongAndOverflow(stop, &overflow);
        if (!overflow)
            return now >= at;
    }
    if ((now_obj = PyLong_FromLongLong(now)) == NULL)
        return -1;
    r = PyObject_RichCompareBool(now_obj, stop, Py_GE);
    Py_DECREF(now_obj);
    return r;
}

/* The next arrival record, consumed: `self._arrivals[idx]` (after a
 * refill when the buffer is spent), None-ed out in the buffer.  A new
 * reference. */
static PyObject *
client_take_record(ClientObject *self)
{
    Py_ssize_t idx = self->arrival_idx, n;
    PyObject *record;
    if (require_member(self->arrivals, "_arrivals") < 0
        || (n = PyObject_Size(self->arrivals)) < 0)
        return NULL;
    if (idx >= n) {
        if (self_discard((PyObject *)self, s_refill_arrivals,
                         (PyCFunction)client_refill_arrivals, NULL) < 0)
            return NULL;
        idx = 0;
        if (require_member(self->arrivals, "_arrivals") < 0)
            return NULL;
    }
    if ((record = PySequence_GetItem(self->arrivals, idx)) == NULL)
        return NULL;
    /* The record's refs die with the send. */
    if (PySequence_SetItem(self->arrivals, idx, Py_None) < 0) {
        Py_DECREF(record);
        return NULL;
    }
    self->arrival_idx = idx + 1;
    return record;
}

/* The recorder when its `<name>` resolves to the C method *meth*, so
 * the client may call the C body directly; NULL otherwise. */
static RecorderObject *
client_c_recorder(ClientObject *self, PyObject *name, PyCFunction meth)
{
    PyObject *recorder = self->recorder;
    if (recorder != NULL && PyObject_TypeCheck(recorder, &RecorderType)
        && resolves_to(recorder, name, meth))
        return (RecorderObject *)recorder;
    return NULL;
}

/* `self.recorder.note_sent(send_time)`, *now* being that time. */
static int
client_note_sent(ClientObject *self, PyObject *send_time, long long now)
{
    RecorderObject *recorder = client_c_recorder(
        self, s_note_sent, (PyCFunction)(void (*)(void))recorder_note_sent);
    if (recorder != NULL) {
        recorder_note_sent_at(recorder, now);
        return 0;
    }
    if (require_member(self->recorder, "recorder") < 0)
        return -1;
    return call_discard(self->recorder, s_note_sent, &send_time, 1);
}

/* `self.recorder.record(sent, now)`. */
static int
client_record_latency(ClientObject *self, PyObject *sent, long long now)
{
    RecorderObject *recorder = client_c_recorder(
        self, s_record, (PyCFunction)(void (*)(void))recorder_record);
    PyObject *args[2];
    long long send;
    int overflow, r;
    if (recorder != NULL && PyLong_CheckExact(sent)) {
        send = PyLong_AsLongLongAndOverflow(sent, &overflow);
        if (!overflow) {
            Py_INCREF(recorder);
            r = recorder_record_at(recorder, send, now);
            Py_DECREF(recorder);
            return r;
        }
    }
    if (require_member(self->recorder, "recorder") < 0
        || (args[1] = PyLong_FromLongLong(now)) == NULL)
        return -1;
    args[0] = sent;
    r = call_discard(self->recorder, s_record, args, 2);
    Py_DECREF(args[1]);
    return r;
}

/* Send one record's packets, stamped with *send_time*. */
static int
client_send_packets(ClientObject *self, PyObject *packets, PyObject *send_time)
{
    PyObject *iter = PyObject_GetIter(packets), *packet;
    int rc = 0;
    if (iter == NULL)
        return -1;
    while (rc == 0 && (packet = PyIter_Next(iter)) != NULL) {
        rc = SET_PACKET(packet, created_at, send_time);
        if (rc == 0)
            rc = self_discard((PyObject *)self, s_send,
                              (PyCFunction)host_send, packet);
        Py_DECREF(packet);
    }
    Py_DECREF(iter);
    return rc < 0 || PyErr_Occurred() ? -1 : 0;
}

static PyObject *
client_send_one(ClientObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *sim = self->host.sim, *record, *tuple, *send_time = NULL,
        *fn = NULL;
    long long now, seq;
    int r;
    if (require_member(sim, "sim") < 0 || sim_now_of(sim, &now) < 0)
        return NULL;
    if ((r = client_stopped(self, now)) != 0)
        return r < 0 ? NULL : Py_NewRef(Py_None);
    if ((record = client_take_record(self)) == NULL)
        return NULL;
    /* `seq, request, packets, gap = record`. */
    tuple = PySequence_Tuple(record);
    Py_DECREF(record);
    if (tuple == NULL)
        return NULL;
    if (PyTuple_GET_SIZE(tuple) != 4) {
        PyErr_Format(PyExc_ValueError,
                     "arrival record has %zd values, expected 4",
                     PyTuple_GET_SIZE(tuple));
        goto fail;
    }
    seq = PyLong_AsLongLong(PyTuple_GET_ITEM(tuple, 0));
    if (seq == -1 && PyErr_Occurred())
        goto fail;
    self->seq = seq;
    if (require_member(self->host.sim, "sim") < 0
        || sim_now_of(self->host.sim, &now) < 0
        || (send_time = PyLong_FromLongLong(now)) == NULL
        || require_member(self->outstanding, "_outstanding") < 0
        || PyObject_SetItem(self->outstanding, PyTuple_GET_ITEM(tuple, 0),
                            send_time) < 0
        || client_note_sent(self, send_time, now) < 0
        || client_send_packets(self, PyTuple_GET_ITEM(tuple, 2),
                               send_time) < 0
        || require_member(self->host.sim, "sim") < 0
        || (fn = bound_entry((PyObject *)self, s_send_one,
                             (PyCFunction)client_send_one,
                             &self->send_entry)) == NULL
        || schedule_after(self->host.sim, PyTuple_GET_ITEM(tuple, 3), fn,
                          NULL) < 0)
        goto fail;
    Py_DECREF(fn);
    Py_DECREF(send_time);
    Py_DECREF(tuple);
    Py_RETURN_NONE;
fail:
    Py_XDECREF(fn);
    Py_XDECREF(send_time);
    Py_DECREF(tuple);
    return NULL;
}

/* `packet.release()`, then None. */
static PyObject *
client_drop(PyObject *packet)
{
    if (release_packet(packet) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
client_handle(ClientObject *self, PyObject *packet)
{
    PyObject *payload, *value, *sent;
    long long now;
    int r;
    if ((payload = GET_PACKET(packet, payload)) == NULL)
        return NULL;
    if (payload == Py_None) {
        Py_DECREF(payload);
        return client_drop(packet);
    }
    /* `payload.client_id != self.client_id`: a foreign response. */
    r = -1;
    if ((value = PyObject_GetAttr(payload, s_client_id)) != NULL
        && require_member(self->client_id, "client_id") == 0)
        r = PyObject_RichCompareBool(value, self->client_id, Py_NE);
    Py_XDECREF(value);
    if (r != 0) {
        Py_DECREF(payload);
        return r < 0 ? NULL : client_drop(packet);
    }
    self->responses_received += 1;
    /* `self._outstanding.pop(payload.client_seq, None)`. */
    value = PyObject_GetAttr(payload, s_client_seq);
    Py_DECREF(payload);
    if (value == NULL
        || require_member(self->outstanding, "_outstanding") < 0) {
        Py_XDECREF(value);
        return NULL;
    }
    if (PyDict_CheckExact(self->outstanding)) {
#if PY_VERSION_HEX >= 0x030D0000
        if (PyDict_Pop(self->outstanding, value, &sent) == 0)
            sent = Py_NewRef(Py_None);
#else
        sent = _PyDict_Pop(self->outstanding, value, Py_None);
#endif
    }
    else {
        PyObject *pop_args[2] = {value, Py_None};
        sent = call_method(self->outstanding, s_pop, pop_args, 2);
    }
    Py_DECREF(value);
    if (sent == NULL)
        return NULL;
    if (sent == Py_None) {
        /* Second (redundant) response for an already-completed request. */
        Py_DECREF(sent);
        self->redundant_responses += 1;
        return client_drop(packet);
    }
    r = -1;
    if (require_member(self->host.sim, "sim") == 0
        && sim_now_of(self->host.sim, &now) == 0)
        r = client_record_latency(self, sent, now);
    Py_DECREF(sent);
    if (r < 0)
        return NULL;
    return client_drop(packet);
}

#define CLIENT_OBJECTS(X) \
    X(client_id) X(workload) X(recorder) X(rng) X(stop_at_ns) \
    X(arrival_process) X(outstanding) X(arrivals) X(fixed_req_size) \
    X(handle_entry) X(send_entry)

static int
client_traverse(ClientObject *self, visitproc visit, void *arg)
{
#define VISIT(field) Py_VISIT(self->field);
    CLIENT_OBJECTS(VISIT)
#undef VISIT
    return host_traverse(&self->host, visit, arg);
}

static int
client_clear(ClientObject *self)
{
#define CLEAR(field) Py_CLEAR(self->field);
    CLIENT_OBJECTS(CLEAR)
#undef CLEAR
    return host_clear(&self->host);
}

static void
client_dealloc(ClientObject *self)
{
    PyObject_GC_UnTrack(self);
    client_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

#define CLIENT_OBJECT(name, field) \
    {name, T_OBJECT_EX, offsetof(ClientObject, field), 0, NULL}
#define CLIENT_LONG(name, field) \
    {name, T_LONGLONG, offsetof(ClientObject, field), 0, NULL}
static PyMemberDef client_members[] = {
    CLIENT_OBJECT("client_id", client_id),
    CLIENT_OBJECT("workload", workload),
    CLIENT_OBJECT("recorder", recorder),
    CLIENT_OBJECT("rng", rng),
    CLIENT_OBJECT("stop_at_ns", stop_at_ns),
    CLIENT_OBJECT("arrival_process", arrival_process),
    CLIENT_OBJECT("_outstanding", outstanding),
    CLIENT_OBJECT("_arrivals", arrivals),
    CLIENT_OBJECT("_fixed_req_size", fixed_req_size),
    {"_mean_gap_ns", T_DOUBLE, offsetof(ClientObject, mean_gap_ns), 0, NULL},
    CLIENT_LONG("_seq", seq),
    CLIENT_LONG("_predrawn_seq", predrawn_seq),
    CLIENT_LONG("responses_received", responses_received),
    CLIENT_LONG("redundant_responses", redundant_responses),
    {"_arrival_idx", T_PYSSIZET, offsetof(ClientObject, arrival_idx), 0, NULL},
    {NULL}
};
#undef CLIENT_LONG
#undef CLIENT_OBJECT

static PyMethodDef client_methods[] = {
    {"_send_one", (PyCFunction)client_send_one, METH_NOARGS,
     "Send the next pre-drawn request and schedule the one after it."},
    {"handle", (PyCFunction)client_handle, METH_O,
     "Record the first response to a request; count a redundant one."},
    {"_refill_arrivals", (PyCFunction)client_refill_arrivals, METH_NOARGS,
     "Pre-draw the next chunk of arrival records."},
    {"_next_gap", (PyCFunction)client_next_gap, METH_NOARGS,
     "The next inter-arrival gap in ns."},
    {"_flush_arrivals", (PyCFunction)client_flush_arrivals, METH_NOARGS,
     "Discard pre-drawn arrivals; their packets go back to the pool."},
    {"_netclone_packets", (PyCFunction)client_netclone_packets, METH_O,
     "NetCloneClient.build_packets: one request to the virtual service IP."},
    {"_baseline_packets", (PyCFunction)client_baseline_packets, METH_O,
     "BaselineClient.build_packets: one request to a random server."},
    {NULL}
};

static PyTypeObject ClientType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.ClientCore",
    .tp_basicsize = sizeof(ClientObject),
    .tp_dealloc = (destructor)client_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of apps.client.OpenLoopClient: the request path "
              "(pre-draw, send, first-response bookkeeping).",
    .tp_traverse = (traverseproc)client_traverse,
    .tp_clear = (inquiry)client_clear,
    .tp_methods = client_methods,
    .tp_members = client_members,
    .tp_base = &HostType,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Workload draws: chunked service times and request payloads          */
/* ------------------------------------------------------------------ */

/* workloads/chunks.py's `expovariate_chunk` and `payloads`: the C twins
 * of the pure-Python functions there, which stay the reference.  The
 * synthetic and KV workloads draw a chunk of requests through them, so
 * no request costs a Python frame.  On an exact `random.Random` the
 * service-time draws are replayed from `random()`, as CPython's
 * `expovariate` makes them (`-log(1.0 - random()) / rate`, with the
 * caller's `rate` double); any other RNG gets the Python calls. */

/* `rng.random()` as a double. */
static int
draw_random(PyObject *rng, int stock, double *out)
{
    PyObject *draw = stock ? rng_random(rng)
                           : call_method(rng, s_random, NULL, 0);
    if (draw == NULL)
        return -1;
    *out = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* `int(rng.expovariate(rate)) + 1`, a new reference. */
static PyObject *
draw_service(PyObject *rng, int stock, PyObject *rate)
{
    PyObject *value, *whole, *item;
    double u;
    if (stock) {
        if (draw_random(rng, 1, &u) < 0)
            return NULL;
        return gap_from_double(-log(1.0 - u) / PyFloat_AS_DOUBLE(rate));
    }
    if ((value = call_method(rng, s_expovariate, &rate, 1)) == NULL)
        return NULL;
    whole = PyNumber_Long(value);
    Py_DECREF(value);
    if (whole == NULL)
        return NULL;
    item = PyNumber_Add(whole, g_one);
    Py_DECREF(whole);
    return item;
}

/* `expovariate_chunk(rng, n, rates, cumulative)`. */
static PyObject *
mod_expovariate_chunk(PyObject *module, PyObject *const *args,
                      Py_ssize_t nargs)
{
    PyObject *rng, *rates, *cumulative = NULL, *list = NULL, *item;
    Py_ssize_t n, m, i, mode;
    double *cum = NULL, pick;
    int stock;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "expovariate_chunk() takes exactly "
                        "4 arguments (rng, n, rates, cumulative)");
        return NULL;
    }
    rng = args[0];
    if ((n = PyNumber_AsSsize_t(args[1], PyExc_OverflowError)) == -1
        && PyErr_Occurred())
        return NULL;
    if ((rates = PySequence_Tuple(args[2])) == NULL)
        return NULL;
    m = PyTuple_GET_SIZE(rates);
    if (args[3] != Py_None) {
        if ((cumulative = PySequence_Tuple(args[3])) == NULL)
            goto done;
        if (PyTuple_GET_SIZE(cumulative) != m) {
            PyErr_SetString(PyExc_ValueError,
                            "expovariate_chunk() needs one cumulative "
                            "weight per rate");
            goto done;
        }
        if ((cum = PyMem_New(double, m)) == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        for (i = 0; i < m; i++) {
            cum[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(cumulative, i));
            if (cum[i] == -1.0 && PyErr_Occurred())
                goto done;
        }
    }
    if (n < 0 || m == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "expovariate_chunk() needs n >= 0 and a rate");
        goto done;
    }
    stock = rng_is_stock(rng);
    for (i = 0; stock && i < m; i++)
        stock = PyFloat_CheckExact(PyTuple_GET_ITEM(rates, i));
    if ((list = PyList_New(n)) == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        /* The first mode whose cumulative weight exceeds the pick, the
         * last when none does. */
        mode = 0;
        if (cum != NULL) {
            if (draw_random(rng, stock, &pick) < 0)
                goto fail;
            while (mode < m - 1 && !(pick < cum[mode]))
                mode++;
        }
        if ((item = draw_service(rng, stock, PyTuple_GET_ITEM(rates, mode)))
            == NULL)
            goto fail;
        PyList_SET_ITEM(list, i, item);
    }
    goto done;
fail:
    Py_CLEAR(list);
done:
    PyMem_Free(cum);
    Py_XDECREF(cumulative);
    Py_DECREF(rates);
    return list;
}

/* The slot *name* of *type* for `payloads`: a member descriptor, a new
 * reference. */
static PyObject *
payload_slot(PyTypeObject *type, PyObject *name)
{
    PyObject *descr = PyUnicode_Check(name) ? _PyType_Lookup(type, name) : NULL;
    if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_TypeError, "%R is not a slot of %s", name,
                     type->tp_name);
        return NULL;
    }
    return Py_NewRef(descr);
}

/* `payloads(cls, n, columns)`. */
static PyObject *
mod_payloads(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyTypeObject *type;
    PyObject *columns, *key, *value, *empty = NULL, *list = NULL,
        **slots = NULL, **values = NULL, *obj;
    Py_ssize_t n, k = 0, nslots, pos = 0, i, j;
    if (nargs != 3 || !PyType_Check(args[0]) || !PyDict_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "payloads() takes a class, a count "
                        "and a dict of columns");
        return NULL;
    }
    type = (PyTypeObject *)args[0];
    columns = args[2];
    if (type->tp_new != PyBaseObject_Type.tp_new) {
        PyErr_Format(PyExc_TypeError, "%s defines its own __new__",
                     type->tp_name);
        return NULL;
    }
    if ((n = PyNumber_AsSsize_t(args[1], PyExc_OverflowError)) == -1
        && PyErr_Occurred())
        return NULL;
    nslots = PyDict_GET_SIZE(columns);
    slots = PyMem_New(PyObject *, nslots);
    values = PyMem_New(PyObject *, nslots);
    if (slots == NULL || values == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* slots[j]: the member descriptor; values[j]: its column. */
    while (PyDict_Next(columns, &pos, &key, &value)) {
        if ((slots[k] = payload_slot(type, key)) == NULL)
            goto done;
        if ((values[k++] = PySequence_Fast(value, "a column must be a sequence"))
            == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(values[k - 1]) != n) {
            PyErr_Format(PyExc_ValueError, "column %R has %zd values, "
                         "expected %zd", key,
                         PySequence_Fast_GET_SIZE(values[k - 1]), n);
            goto done;
        }
    }
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "payloads() needs n >= 0");
        goto done;
    }
    if ((empty = PyTuple_New(0)) == NULL || (list = PyList_New(n)) == NULL)
        goto done;
    for (i = 0; i < n; i++) {
        if ((obj = type->tp_new(type, empty, NULL)) == NULL)
            goto fail;
        PyList_SET_ITEM(list, i, obj);
        for (j = 0; j < nslots; j++) {
            if (Py_TYPE(slots[j])->tp_descr_set(
                    slots[j], obj, PySequence_Fast_GET_ITEM(values[j], i)) < 0)
                goto fail;
        }
    }
    goto done;
fail:
    Py_CLEAR(list);
done:
    for (j = 0; j < k; j++) {
        Py_DECREF(slots[j]);
        Py_XDECREF(values[j]);
    }
    PyMem_Free(values);
    PyMem_Free(slots);
    Py_XDECREF(empty);
    return list;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
mod_configure(PyObject *module, PyObject *args)
{
    PyObject *sched_error, *network_error, *port_error, *stage_error,
        *experiment_error;
    if (!PyArg_ParseTuple(args, "OOOOO", &sched_error, &network_error,
                          &port_error, &stage_error, &experiment_error))
        return NULL;
    Py_INCREF(sched_error);
    Py_XSETREF(g_sched_error, sched_error);
    Py_INCREF(network_error);
    Py_XSETREF(g_network_error, network_error);
    Py_INCREF(port_error);
    Py_XSETREF(g_port_error, port_error);
    Py_INCREF(stage_error);
    Py_XSETREF(g_stage_access_error, stage_error);
    Py_INCREF(experiment_error);
    Py_XSETREF(g_experiment_error, experiment_error);
    Py_RETURN_NONE;
}

/* The NetClone build's header class and the group-table class whose
 * `sample` it replays. */
static PyObject *
mod_configure_client(PyObject *module, PyObject *args)
{
    PyObject *header_type, *group_table_type, *wire_size;
    PyTypeObject *header;
    if (!PyArg_ParseTuple(args, "O!O!", &PyType_Type, &header_type,
                          &PyType_Type, &group_table_type))
        return NULL;
    header = (PyTypeObject *)header_type;
    if (!PyType_IsSubtype(header, &HeaderType) || header->tp_new != header_new
        || header->tp_init != PyBaseObject_Type.tp_init) {
        PyErr_SetString(PyExc_TypeError, "the header class must subclass "
                        "HeaderCore and add no constructor");
        return NULL;
    }
    if ((wire_size = PyObject_GetAttr(header_type, s_wire_size)) == NULL)
        return NULL;
    Py_XSETREF(g_wire_size, wire_size);
    Py_INCREF(header_type);
    Py_XSETREF(g_header_type, header_type);
    Py_INCREF(group_table_type);
    Py_XSETREF(g_group_table_type, group_table_type);
    Py_RETURN_NONE;
}

/* The KV service classes whose methods the server replays (see "The KV
 * service replay"): each method as the class holds it now. */
static PyObject *
mod_configure_server(PyObject *module, PyObject *args)
{
    PyObject *service, *cost, *store, *jitter, *op;
    size_t i;
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!", &PyType_Type, &service,
                          &PyType_Type, &cost, &PyType_Type, &store,
                          &PyType_Type, &jitter, &PyType_Type, &op))
        return NULL;
    {
        struct {
            PyObject **slot, *owner;
            const char *name;
        } entries[] = {
            {&g_kv.base_service_ns, service, "base_service_ns"},
            {&g_kv.execute, service, "execute"},
            {&g_kv.response_size, service, "response_size"},
            {&g_kv.service_ns, cost, "service_ns"},
            {&g_kv.get, store, "get"},
            {&g_kv.scan, store, "scan"},
            {&g_kv.check_key, store, "_check_key"},
            {&g_kv.base_value, store, "_base_value"},
            {&g_kv.apply, jitter, "apply"},
            {&g_kv.op_get, op, "GET"},
            {&g_kv.op_scan, op, "SCAN"},
            {&g_kv.op_set, op, "SET"},
        };
        for (i = 0; i < sizeof(entries) / sizeof(entries[0]); i++) {
            PyObject *value = PyObject_GetAttrString(entries[i].owner,
                                                     entries[i].name);
            if (value == NULL)
                return NULL;
            Py_XSETREF(*entries[i].slot, value);
        }
    }
    Py_RETURN_NONE;
}

/* The sanitizer's site for a packet C code is acquiring, or None. */
static PyObject *
mod_acquire_site(PyObject *module, PyObject *Py_UNUSED(ignored))
{
    if (g_acquire_site == NULL)
        Py_RETURN_NONE;
    return PyUnicode_FromString(g_acquire_site);
}

static PyMethodDef mod_methods[] = {
    {"configure", mod_configure, METH_VARARGS,
     "configure(SchedulingError, NetworkError, PortError, "
     "StageAccessError, ExperimentError): wire the Python error classes."},
    {"configure_client", mod_configure_client, METH_VARARGS,
     "configure_client(NetCloneHeader, GroupTable): the header class the "
     "C NetClone build makes and the table class whose sample it replays."},
    {"configure_server", mod_configure_server, METH_VARARGS,
     "configure_server(KvService, KvCostModel, KeyValueStore, JitterModel, "
     "KvOp): the classes whose methods the server replays while Python "
     "would resolve them to these."},
    {"expovariate_chunk", (PyCFunction)(void (*)(void))mod_expovariate_chunk,
     METH_FASTCALL,
     "expovariate_chunk(rng, n, rates, cumulative): n service times "
     "int(rng.expovariate(rate)) + 1, the rate picked by a random() draw "
     "against the cumulative weights unless those are None."},
    {"payloads", (PyCFunction)(void (*)(void))mod_payloads, METH_FASTCALL,
     "payloads(cls, n, columns): n instances of a slotted class, made "
     "without __init__, each slot set to its item of its column."},
    {"acquire_site", mod_acquire_site, METH_NOARGS,
     "The `file:site` tag of the C code acquiring a packet through a "
     "Python-level acquire, or None."},
    {NULL}
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "C core for the discrete-event scheduler, the packet plane, "
             "the forwarding hop, the NetClone switch pass, the "
             "server's and the client's request paths, the latency "
             "recorder and the workloads' chunk draws.",
    .m_size = -1,
    .m_methods = mod_methods,
};

static int
intern_names(void)
{
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return -1
    INTERN(s_src, "src");
    INTERN(s_dst, "dst");
    INTERN(s_sport, "sport");
    INTERN(s_dport, "dport");
    INTERN(s_size, "size");
    INTERN(s_payload, "payload");
    INTERN(s_nc, "nc");
    INTERN(s_ingress_port, "ingress_port");
    INTERN(s_recirculated, "recirculated");
    INTERN(s_created_at, "created_at");
    INTERN(s_msg_type, "msg_type");
    INTERN(s_req_id, "req_id");
    INTERN(s_grp, "grp");
    INTERN(s_sid, "sid");
    INTERN(s_state, "state");
    INTERN(s_clo, "clo");
    INTERN(s_idx, "idx");
    INTERN(s_swid, "swid");
    INTERN(s_release, "release");
    INTERN(s_copy, "copy");
    INTERN(s_acquire, "acquire");
    INTERN(s_append, "append");
    INTERN(s_pop, "pop");
    INTERN(s_packet_type, "_packet_type");
    INTERN(s_down, "down");
    INTERN(s_loss_probability, "loss_probability");
    INTERN(s_send, "send");
    INTERN(s_serialization_ns, "serialization_ns");
    INTERN(s_call_at, "call_at");
    INTERN(s_now, "now");
    INTERN(s_handle, "handle");
    INTERN(s_emit, "_emit");
    INTERN(s_name, "name");
    INTERN(s_rx, "rx");
    INTERN(s_rx_dropped_down, "rx_dropped_down");
    INTERN(s_dropped_by_program, "dropped_by_program");
    INTERN(s_no_route, "no_route");
    INTERN(s_tx, "tx");
    INTERN(s_dropped_down, "dropped_down");
    INTERN(s_recirculate, "recirculate");
    INTERN(s_counts, "_counts");
    INTERN(s_nc_unknown_server, "nc_unknown_server");
    INTERN(s_nc_unknown_group, "nc_unknown_group");
    INTERN(s_nc_cloned, "nc_cloned");
    INTERN(s_nc_jsq_second_choice, "nc_jsq_second_choice");
    INTERN(s_nc_filtered, "nc_filtered");
    INTERN(s_nc_fingerprint_overwrite, "nc_fingerprint_overwrite");
    INTERN(s_nc_fingerprint_insert, "nc_fingerprint_insert");
    INTERN(s_start_work, "_start_work");
    INTERN(s_finish_work, "_finish_work");
    INTERN(s_respond, "_respond");
    INTERN(s_service_ns, "service_ns");
    INTERN(s_p, "p");
    INTERN(s_factor, "factor");
    INTERN(s_random, "random");
    INTERN(s_base_service_ns, "base_service_ns");
    INTERN(s_apply, "apply");
    INTERN(s_execute, "execute");
    INTERN(s_response_size, "response_size");
    INTERN(s_popleft, "popleft");
    INTERN(s_call_after, "call_after");
    INTERN(s_non_request_ignored, "non_request_ignored");
    INTERN(s_clones_dropped, "clones_dropped");
    INTERN(s_requests_accepted, "requests_accepted");
    INTERN(s_responses_sent, "responses_sent");
    INTERN(s_cost_model, "cost_model");
    INTERN(s_store, "store");
    INTERN(s_op, "op");
    INTERN(s_key, "key");
    INTERN(s_count, "count");
    INTERN(s_get, "get");
    INTERN(s_scan, "scan");
    INTERN(s_check_key, "_check_key");
    INTERN(s_base_value, "_base_value");
    INTERN(s_num_keys, "num_keys");
    INTERN(s_gets, "gets");
    INTERN(s_scans, "scans");
    INTERN(s_get_ns, "get_ns");
    INTERN(s_scan_base_ns, "scan_base_ns");
    INTERN(s_scan_per_item_ns, "scan_per_item_ns");
    INTERN(s_set_ns, "set_ns");
    INTERN(s_response_overhead, "RESPONSE_OVERHEAD");
    INTERN(s_value_bytes, "VALUE_BYTES");
    INTERN(s_send_one, "_send_one");
    INTERN(s_refill_arrivals, "_refill_arrivals");
    INTERN(s_next_gap, "_next_gap");
    INTERN(s_process_next_gap, "next_gap");
    INTERN(s_flush_arrivals, "_flush_arrivals");
    INTERN(s_build_packets, "build_packets");
    INTERN(s_arrival_chunk, "ARRIVAL_CHUNK");
    INTERN(s_make_request_chunk, "make_request_chunk");
    INTERN(s_make_request, "make_request");
    INTERN(s_request_size, "request_size");
    INTERN(s_note_sent, "note_sent");
    INTERN(s_record, "record");
    INTERN(s_client_id, "client_id");
    INTERN(s_client_seq, "client_seq");
    INTERN(s_write, "write");
    INTERN(s_randrange, "randrange");
    INTERN(s_choice, "choice");
    INTERN(s_expovariate, "expovariate");
    INTERN(s_sample, "sample");
    INTERN(s_pairs, "pairs");
    INTERN(s_split, "split");
    INTERN(s_p_local, "p_local");
    INTERN(s_group_table, "_group_table");
    INTERN(s_num_filter_tables, "num_filter_tables");
    INTERN(s_server_ips, "server_ips");
    INTERN(s_wire_size, "WIRE_SIZE");
    INTERN(s_note, "note");
    INTERN(s_add, "add");
    INTERN(s_send_time_ns, "send_time_ns");
    INTERN(s_done_time_ns, "done_time_ns");
#undef INTERN
    {
        PyObject *header[N_HEADER_FIELDS] = {
            s_msg_type, s_req_id, s_grp, s_sid, s_state, s_clo, s_idx, s_swid};
        PyObject *acquire[N_ACQUIRE_ARGS] = {
            s_src, s_dst, s_sport, s_dport, s_size, s_payload, s_nc,
            s_created_at};
        memcpy(header_names, header, sizeof(header));
        memcpy(acquire_names, acquire, sizeof(acquire));
    }
    crc32_init();
    if ((g_zero_float = PyFloat_FromDouble(0.0)) == NULL
        || (g_zero = PyLong_FromLong(0)) == NULL
        || (g_one = PyLong_FromLong(1)) == NULL
        || (g_minus_one = PyLong_FromLong(-1)) == NULL
        || (g_msg_resp = PyLong_FromLong(NC_MSG_RESP)) == NULL
        || (g_udp_port = PyLong_FromLong(NC_UDP_PORT)) == NULL
        || (g_scan_values = PyLong_FromLong(KV_SCAN_VALUES)) == NULL
        || (g_one_float = PyFloat_FromDouble(1.0)) == NULL
        || (g_virtual_ip = PyLong_FromLongLong(NC_VIRTUAL_SERVICE_IP)) == NULL
        || (g_plain_port = PyLong_FromLong(PLAIN_RPC_PORT)) == NULL)
        return -1;
    return 0;
}

/* random.Random and its two primitives, whose draws the client
 * replays. */
static int
import_random(void)
{
    PyObject *module = PyImport_ImportModule("random");
    if (module == NULL)
        return -1;
    g_random_type = PyObject_GetAttrString(module, "Random");
    Py_DECREF(module);
    if (g_random_type == NULL
        || (g_rng_random = PyObject_GetAttrString(g_random_type, "random"))
               == NULL
        || (g_rng_getrandbits = PyObject_GetAttrString(g_random_type,
                                                       "getrandbits")) == NULL)
        return -1;
    return 0;
}

PyMODINIT_FUNC
PyInit__ccore(void)
{
    static struct {
        const char *name;
        PyTypeObject *type;
    } types[] = {
        {"Simulator", &SimType},
        {"DirectionCore", &DirType},
        {"SwitchCore", &SwitchType},
        {"HostCore", &HostType},
        {"ServerCore", &ServerType},
        {"ClientCore", &ClientType},
        {"RecorderCore", &RecorderType},
        {"NetClonePass", &PassType},
        {"PacketCore", &PacketType},
        {"PoolCore", &PoolType},
        {"HeaderCore", &HeaderType},
    };
    PyObject *module;
    size_t i;
    if (intern_names() < 0 || import_random() < 0)
        return NULL;
    for (i = 0; i < sizeof(types) / sizeof(types[0]); i++) {
        if (PyType_Ready(types[i].type) < 0)
            return NULL;
    }
    module = PyModule_Create(&ccore_module);
    if (module == NULL)
        return NULL;
    for (i = 0; i < sizeof(types) / sizeof(types[0]); i++) {
        Py_INCREF(types[i].type);
        if (PyModule_AddObject(module, types[i].name,
                               (PyObject *)types[i].type) < 0) {
            Py_DECREF(types[i].type);
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}
