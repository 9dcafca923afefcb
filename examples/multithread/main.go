// Multithread: unmodified multithreaded Java — producer/consumer over
// Object.wait/notify plus Thread.sleep — running on Doppio's
// cooperative thread pool (§4.3, §6.2) inside one browser event loop.
//
//	go run ./examples/multithread
package main

import (
	"fmt"
	"os"

	"doppio/internal/browser"
	"doppio/internal/jvm"
	"doppio/internal/jvm/rt"
)

const program = `
class Queue {
    Object lock = new Object();
    int[] items = new int[4];
    int count;

    void put(int v) {
        synchronized (lock) {
            while (count == items.length) { lock.wait(); }
            items[count] = v;
            count++;
            lock.notifyAll();
        }
    }

    int take() {
        synchronized (lock) {
            while (count == 0) { lock.wait(); }
            count--;
            int v = items[count];
            lock.notifyAll();
            return v;
        }
    }
}

class Producer extends Thread {
    Queue q;
    int n;
    Producer(Queue q, int n) { this.q = q; this.n = n; }
    public void run() {
        for (int i = 1; i <= n; i++) {
            q.put(i);
            if (i % 8 == 0) { Thread.sleep(1L); }
        }
    }
}

class Consumer extends Thread {
    Queue q;
    int n;
    int sum;
    Consumer(Queue q, int n) { this.q = q; this.n = n; }
    public void run() {
        for (int i = 0; i < n; i++) {
            sum += q.take();
        }
    }
}

public class Demo {
    public static void main(String[] args) {
        Queue q = new Queue();
        Producer p = new Producer(q, 64);
        Consumer a = new Consumer(q, 32);
        Consumer b = new Consumer(q, 32);
        p.start();
        a.start();
        b.start();
        p.join();
        a.join();
        b.join();
        System.out.println("consumed total: " + (a.sum + b.sum));
        System.out.println("expected total: " + (64 * 65 / 2));
    }
}
`

func main() {
	classes, err := rt.CompileWith(map[string]string{"Demo.mj": program})
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}
	win := browser.NewWindow(browser.Firefox22)
	vm := jvm.NewDoppioVM(win, jvm.DoppioOptions{
		Stdout:           os.Stdout,
		Provider:         jvm.MapProvider(classes),
		DisableEngineTax: true,
	})
	if err := vm.RunMain("Demo", nil); err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	st := vm.Runtime().Stats()
	fmt.Printf("three JVM threads interleaved over %d context switches in one %s event loop\n",
		st.ContextSwitches, win.Profile.Name)
	fmt.Printf("one timeslice per macrotask: %d timeslices, %d suspension round trips\n",
		st.Slices, st.Suspensions)
}
