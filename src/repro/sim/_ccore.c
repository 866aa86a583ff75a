/* C implementation of the two-lane calendar-queue Simulator.
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
 * module outside sim/ pushes onto the lanes: every call site goes
 * through `call_at` / `call_after`, which is cheaper here than an
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
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* Configured once from Python via _ccore.configure(...). */
static PyObject *g_sched_error = NULL;    /* SchedulingError class */

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
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
mod_configure(PyObject *module, PyObject *args)
{
    PyObject *error_cls;
    if (!PyArg_ParseTuple(args, "O", &error_cls))
        return NULL;
    Py_INCREF(error_cls);
    Py_XSETREF(g_sched_error, error_cls);
    Py_RETURN_NONE;
}

static PyMethodDef mod_methods[] = {
    {"configure", mod_configure, METH_VARARGS,
     "configure(SchedulingError): wire the Python error class."},
    {NULL}
};

static struct PyModuleDef ccore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ccore",
    .m_doc = "C core for the discrete-event scheduler.",
    .m_size = -1,
    .m_methods = mod_methods,
};

PyMODINIT_FUNC
PyInit__ccore(void)
{
    PyObject *module;
    if (PyType_Ready(&SimType) < 0)
        return NULL;
    module = PyModule_Create(&ccore_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&SimType);
    if (PyModule_AddObject(module, "Simulator", (PyObject *)&SimType) < 0) {
        Py_DECREF(&SimType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
