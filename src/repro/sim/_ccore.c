/* C core: the two-lane calendar-queue Simulator and the forwarding hop.
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
 * The forwarding hop.  Three base types carry the per-packet work of
 * a hop with no Python frame: `DirectionCore` (net/link.py's
 * `Direction.push`: serialisation booking, then the receiver's
 * wiring-time entry or a scheduler entry built here), `SwitchCore`
 * (switchsim/switch.py's `link_ingress` and `_egress`) and `HostCore`
 * (net/host.py's `send` and `link_rx_at`).  Each is the C twin of a
 * pure-Python class of the same name in its module, which stays the
 * reference; the Python classes subclass whichever is live.  The hop
 * calls into Python for everything that is not plain forwarding: the
 * switch program's pass, dynamic route selectors, `Link.send` for a
 * link that can drop, `Packet.release`, and the receiver's entry
 * point (so class-level wrappers installed before wiring still see
 * every call).  Scheduling from the hop consumes one seq per event,
 * exactly like the `call_at` it replaces.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Configured once from Python via _ccore.configure(...). */
static PyObject *g_sched_error = NULL;    /* SchedulingError class */
static PyObject *g_network_error = NULL;  /* NetworkError class */
static PyObject *g_port_error = NULL;     /* PortError class */

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

/* Names the hop reads, writes or calls; interned at module init. */
static PyObject *s_size, *s_dst, *s_ingress_port, *s_recirculated,
    *s_release, *s_down, *s_loss_probability, *s_send,
    *s_serialization_ns, *s_call_at, *s_now, *s_handle, *s_emit,
    *s_name, *s_rx, *s_rx_dropped_down, *s_dropped_by_program,
    *s_no_route, *s_tx;
static PyObject *g_zero_float = NULL;     /* 0.0, for loss_probability */
static PyObject *g_one = NULL;            /* 1, the counter step */

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

/* `sim.call_at(time, fn, a0[, a1])`.  On the C engine the entry goes
 * straight onto the lanes, with the same seq and the same
 * before-now check `call_at` makes; any other engine gets the call. */
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
        else if ((args = a1 == NULL ? PyTuple_Pack(1, a0)
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
            s_call_at, stack, a1 == NULL ? 4 : 5, NULL);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(fn);
    Py_DECREF(sim);
    Py_DECREF(time_obj);
    return rc;
}

/* `packet.release()`, through Python so a wrapped release sees it. */
static int
release_packet(PyObject *packet)
{
    PyObject *res = PyObject_CallMethodNoArgs(packet, s_release);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
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
    size_obj = PyObject_GetAttr(packet, s_size);
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
} SwitchObject;

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
    dst = PyObject_GetAttr(packet, s_dst);
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
    r = PyObject_SetAttr(packet, s_ingress_port, port);
    Py_DECREF(port);
    if (r < 0 || PyObject_SetAttr(packet, s_recirculated, Py_False) < 0
        || count_incr(self->counts, s_rx) < 0)
        return NULL;
    if (self->fast_apply != Py_None) {
        PyObject *apply = self->fast_apply;
        PyObject *stack[3] = {NULL, packet, (PyObject *)self};
        PyObject *verdict;
        Py_INCREF(apply);
        verdict = PyObject_Vectorcall(apply, stack + 1,
                                      2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
        Py_DECREF(apply);
        if (verdict == NULL)
            return NULL;
        r = PyObject_IsTrue(verdict);
        Py_DECREF(verdict);
        if (r < 0)
            return NULL;
        if (r) {
            if (count_incr(self->counts, s_dropped_by_program) < 0
                || release_packet(packet) < 0)
                return NULL;
            Py_RETURN_NONE;
        }
    }
    if (switch_egress(self, packet) < 0)
        return NULL;
    Py_RETURN_NONE;
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
    {NULL}
};

static PyMethodDef switch_methods[] = {
    {"link_ingress", (PyCFunction)(void (*)(void))switch_link_ingress,
     METH_FASTCALL, "Fused arrival + pipeline pass, one event per hop."},
    {"_egress", (PyCFunction)switch_egress_method, METH_O,
     "Route packet and book it onto the egress direction."},
    {NULL}
};

static PyTypeObject SwitchType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ccore.SwitchCore",
    .tp_basicsize = sizeof(SwitchObject),
    .tp_dealloc = (destructor)switch_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_BASETYPE,
    .tp_doc = "C base of switchsim.switch.ProgrammableSwitch: ingress and egress.",
    .tp_traverse = (traverseproc)switch_traverse,
    .tp_clear = (inquiry)switch_clear,
    .tp_methods = switch_methods,
    .tp_members = switch_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* HostCore: the host NIC's TX and RX slots                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    PyObject *link;
    PyObject *uplink;        /* the direction this host transmits on */
    long long tx_cost_ns;
    long long rx_cost_ns;
    long long rx_queue_limit;
    long long tx_free_at;
    long long rx_free_at;
    long long rx_dropped;
} HostObject;

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
        PyObject *name = PyObject_GetAttr((PyObject *)self, s_name);
        if (name != NULL) {
            PyErr_Format(g_network_error, "%S has no link attached", name);
            Py_DECREF(name);
        }
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
    handle = PyObject_GetAttr((PyObject *)self, s_handle);
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
    Py_VISIT(self->link);
    Py_VISIT(self->uplink);
    return 0;
}

static int
host_clear(HostObject *self)
{
    Py_CLEAR(self->sim);
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
    .tp_doc = "C base of net.host.Host: the NIC's TX and RX slots.",
    .tp_traverse = (traverseproc)host_traverse,
    .tp_clear = (inquiry)host_clear,
    .tp_methods = host_methods,
    .tp_members = host_members,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
mod_configure(PyObject *module, PyObject *args)
{
    PyObject *sched_error, *network_error, *port_error;
    if (!PyArg_ParseTuple(args, "OOO", &sched_error, &network_error,
                          &port_error))
        return NULL;
    Py_INCREF(sched_error);
    Py_XSETREF(g_sched_error, sched_error);
    Py_INCREF(network_error);
    Py_XSETREF(g_network_error, network_error);
    Py_INCREF(port_error);
    Py_XSETREF(g_port_error, port_error);
    Py_RETURN_NONE;
}

static PyMethodDef mod_methods[] = {
    {"configure", mod_configure, METH_VARARGS,
     "configure(SchedulingError, NetworkError, PortError): wire the "
     "Python error classes."},
    {NULL}
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "C core for the discrete-event scheduler and the forwarding hop.",
    .m_size = -1,
    .m_methods = mod_methods,
};

static int
intern_names(void)
{
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return -1
    INTERN(s_size, "size");
    INTERN(s_dst, "dst");
    INTERN(s_ingress_port, "ingress_port");
    INTERN(s_recirculated, "recirculated");
    INTERN(s_release, "release");
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
#undef INTERN
    if ((g_zero_float = PyFloat_FromDouble(0.0)) == NULL
        || (g_one = PyLong_FromLong(1)) == NULL)
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
    };
    PyObject *module;
    size_t i;
    if (intern_names() < 0)
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
