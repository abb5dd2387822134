package registry

import (
	"errors"
	"testing"
	"time"
)

func TestPutGetDelete(t *testing.T) {
	r := New()
	v := r.Put("/a/b", "hello")
	if v != 1 {
		t.Fatalf("first version: %d", v)
	}
	val, ver, err := r.Get("/a/b")
	if err != nil || val != "hello" || ver != 1 {
		t.Fatalf("get: %v %v %v", val, ver, err)
	}
	if v := r.Put("/a/b", "world"); v != 2 {
		t.Fatalf("second version: %d", v)
	}
	r.DeleteAll([]string{"/a/b", "/missing"})
	if _, _, err := r.Get("/a/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestPathNormalization(t *testing.T) {
	r := New()
	r.Put("a/b/", "x")
	if val, _, err := r.Get("/a/b"); err != nil || val != "x" {
		t.Fatalf("normalized path: %v %v", val, err)
	}
}

func TestCompareAndPut(t *testing.T) {
	r := New()
	if _, err := r.CompareAndPut("/cfg", "v1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CompareAndPut("/cfg", "v2", 99); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	v, err := r.CompareAndPut("/cfg", "v2", 1)
	if err != nil || v != 2 {
		t.Fatalf("cas: %v %v", v, err)
	}
	if _, err := r.CompareAndPut("/missing", "x", 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cas missing: %v", err)
	}
}

func TestChildrenAndList(t *testing.T) {
	r := New()
	r.Put("/rules/sharding/t_user", "a")
	r.Put("/rules/sharding/t_order", "b")
	r.Put("/rules/encrypt/t_user", "c")
	kids := r.Children("/rules")
	if len(kids) != 2 || kids[0] != "encrypt" || kids[1] != "sharding" {
		t.Fatalf("children: %v", kids)
	}
	all := r.List("/rules/sharding")
	if len(all) != 2 || all["/rules/sharding/t_user"] != "a" {
		t.Fatalf("list: %v", all)
	}
}

func TestWatch(t *testing.T) {
	r := New()
	ch, cancel := r.Watch("/status")
	defer cancel()
	r.Put("/status/node1", "up")
	r.Put("/other", "ignored")
	r.Put("/status/node1", "down")
	r.DeleteAll([]string{"/status/node1"})

	// The create, the update and the delete each notify the watcher once.
	for i := 0; i < 3; i++ {
		select {
		case got := <-ch:
			if got != "/status/node1" {
				t.Fatalf("event %d: got %q want /status/node1", i, got)
			}
		case <-time.After(time.Second):
			t.Fatalf("timeout waiting for event %d", i)
		}
	}
	select {
	case e := <-ch:
		t.Fatalf("unexpected event: %+v", e)
	default:
	}
}

func TestWatchCancelClosesChannel(t *testing.T) {
	r := New()
	ch, cancel := r.Watch("/x")
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel must close on cancel")
	}
	cancel() // idempotent
}

func TestEphemeralNodesDieWithSession(t *testing.T) {
	r := New()
	sess := r.NewSession()
	if _, err := r.PutEphemeral(sess, "/alive/proxy1", "ok"); err != nil {
		t.Fatal(err)
	}
	ch, cancel := r.Watch("/alive")
	defer cancel()
	if _, _, err := r.Get("/alive/proxy1"); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	if _, _, err := r.Get("/alive/proxy1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ephemeral survived session close: %v", err)
	}
	select {
	case path := <-ch:
		if path != "/alive/proxy1" {
			t.Fatalf("want the node's delete event, got %q", path)
		}
	case <-time.After(time.Second):
		t.Fatal("no delete event")
	}
	// Writes on a closed session fail.
	if _, err := r.PutEphemeral(sess, "/alive/proxy1", "ok"); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("closed session write: %v", err)
	}
}

func TestPersistentNodesSurviveSession(t *testing.T) {
	r := New()
	sess := r.NewSession()
	r.Put("/config/ds0", "mysql")
	sess.Close()
	if _, _, err := r.Get("/config/ds0"); err != nil {
		t.Fatalf("persistent node deleted: %v", err)
	}
}

func TestWatchDropsWhenFull(t *testing.T) {
	r := New()
	ch, cancel := r.Watch("/hot")
	defer cancel()
	// Overflow the 256-entry buffer; writers must never block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			r.Put("/hot/k", "v")
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked on a slow watcher")
	}
	_ = ch
}
